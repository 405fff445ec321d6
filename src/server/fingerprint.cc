#include "server/fingerprint.h"

#include "common/hash.h"

namespace zv::server {

namespace {

/// Exact Value hashing: type tag + full-precision payload. ToString would
/// be lossy (%.6g doubles, untagged "NULL"/"5" collisions), and a
/// collision here serves one sketch's result for another. Int(5) and
/// Double(5.0) hash differently even though Value::Compare treats them as
/// equal — that can only split cache entries, never merge distinct data.
void HashValue(Fingerprint128* fp, const Value& v) {
  fp->U64(static_cast<uint64_t>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kInt64:
      fp->U64(static_cast<uint64_t>(v.AsInt()));
      break;
    case DataType::kDouble:
      fp->F64(v.AsDouble());
      break;
    case DataType::kString:
      fp->Str(v.AsString());
      break;
  }
}

/// One sketch's identity (axes, slices, constraints, spec) and data (x
/// values, y series), every field length-prefixed.
void HashSketch(Fingerprint128* fp, const Visualization& v) {
  fp->Str(v.x_attr);
  fp->Str(v.y_attr);
  fp->Str(v.constraints);
  fp->Str(v.spec.ToString());
  fp->U64(v.slices.size());
  for (const Slice& s : v.slices) {
    fp->Str(s.attribute);
    HashValue(fp, s.value);
  }
  fp->U64(v.xs.size());
  for (const Value& x : v.xs) HashValue(fp, x);
  fp->U64(v.series.size());
  for (const Series& s : v.series) {
    fp->Str(s.name);
    fp->U64(s.ys.size());
    for (double y : s.ys) fp->F64(y);
  }
}

}  // namespace

std::string UserInputsFingerprint(
    const std::map<std::string, Visualization>& inputs) {
  if (inputs.empty()) return "";
  Fingerprint128 fp;
  fp.U64(inputs.size());
  for (const auto& [name, viz] : inputs) {  // std::map: deterministic order
    fp.Str(name);
    HashSketch(&fp, viz);
  }
  return fp.Hex();
}

std::string QueryFingerprint(const std::string& dataset, uint64_t epoch,
                             const std::string& backend,
                             zql::OptLevel optimization,
                             const std::string& canonical_zql,
                             const std::string& user_inputs_fp) {
  Fingerprint128 fp;
  fp.Str(dataset);
  fp.U64(epoch);
  fp.Str(backend);
  fp.U64(static_cast<uint64_t>(optimization));
  fp.Str(canonical_zql);
  fp.Str(user_inputs_fp);
  return fp.Hex();
}

}  // namespace zv::server
