#include "common/trace.h"

#include "common/clock.h"
#include "common/strings.h"

namespace zv {

namespace {

Json TraceValueToJson(const TraceValue& v) {
  switch (v.index()) {
    case 0:
      return Json::Int(std::get<int64_t>(v));
    case 1:
      return Json::Double(std::get<double>(v));
    case 2:
      return Json::Str(std::get<std::string>(v));
    default:
      return Json::Bool(std::get<bool>(v));
  }
}

std::string TraceValueToString(const TraceValue& v) {
  switch (v.index()) {
    case 0:
      return std::to_string(std::get<int64_t>(v));
    case 1:
      return CanonicalDouble(std::get<double>(v));
    case 2:
      return std::get<std::string>(v);
    default:
      return std::get<bool>(v) ? "true" : "false";
  }
}

void RenderSpan(const TraceSpan& span, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(span.name);
  out->append(StrFormat("  %.3f ms", span.duration_ms));
  if (!span.attrs.empty()) {
    out->append("  [");
    for (size_t i = 0; i < span.attrs.size(); ++i) {
      if (i > 0) out->append(", ");
      out->append(span.attrs[i].first);
      out->push_back('=');
      out->append(TraceValueToString(span.attrs[i].second));
    }
    out->push_back(']');
  }
  out->push_back('\n');
  for (const auto& child : span.children) {
    RenderSpan(*child, depth + 1, out);
  }
}

void AppendChromeEvents(const TraceSpan& span, Json* events) {
  Json ev = Json::MakeObject();
  ev.Set("name", Json::Str(span.name));
  ev.Set("ph", Json::Str("X"));
  ev.Set("ts", Json::Double(span.start_ms * 1000.0));    // microseconds
  ev.Set("dur", Json::Double(span.duration_ms * 1000.0));
  ev.Set("pid", Json::Int(1));
  ev.Set("tid", Json::Int(0));
  if (!span.attrs.empty()) {
    Json args = Json::MakeObject();
    for (const auto& [key, value] : span.attrs) {
      args.Set(key, TraceValueToJson(value));
    }
    ev.Set("args", std::move(args));
  }
  events->Append(std::move(ev));
  for (const auto& child : span.children) {
    AppendChromeEvents(*child, events);
  }
}

}  // namespace

const TraceSpan* TraceSpan::FindChild(const std::string& child_name) const {
  for (const auto& child : children) {
    if (child->name == child_name) return child.get();
  }
  return nullptr;
}

Trace::Trace(std::string root_name)
    : epoch_(SteadyNow()) {
  root_.name = std::move(root_name);
}

TraceSpan* Trace::Begin(TraceSpan* parent, std::string name) {
  const double start = NowMs();
  auto span = std::make_unique<TraceSpan>();
  span->name = std::move(name);
  span->start_ms = start;
  TraceSpan* raw = span.get();
  std::lock_guard<std::mutex> lock(mu_);
  (parent == nullptr ? root_ : *parent).children.push_back(std::move(span));
  return raw;
}

void Trace::End(TraceSpan* span) {
  if (span == nullptr) return;
  span->duration_ms = NowMs() - span->start_ms;
}

TraceSpan* Trace::Add(TraceSpan* parent, std::string name, double start_ms,
                      double duration_ms) {
  auto span = std::make_unique<TraceSpan>();
  span->name = std::move(name);
  span->start_ms = start_ms;
  span->duration_ms = duration_ms;
  TraceSpan* raw = span.get();
  std::lock_guard<std::mutex> lock(mu_);
  (parent == nullptr ? root_ : *parent).children.push_back(std::move(span));
  return raw;
}

Json EncodeTraceSpan(const TraceSpan& span) {
  Json j = Json::MakeObject();
  j.Set("name", Json::Str(span.name));
  j.Set("start_ms", Json::Double(span.start_ms));
  j.Set("dur_ms", Json::Double(span.duration_ms));
  if (!span.attrs.empty()) {
    Json attrs = Json::MakeObject();
    for (const auto& [key, value] : span.attrs) {
      attrs.Set(key, TraceValueToJson(value));
    }
    j.Set("attrs", std::move(attrs));
  }
  if (!span.children.empty()) {
    Json children = Json::MakeArray();
    for (const auto& child : span.children) {
      children.Append(EncodeTraceSpan(*child));
    }
    j.Set("children", std::move(children));
  }
  return j;
}

std::string RenderTraceTree(const TraceSpan& span) {
  std::string out;
  RenderSpan(span, 0, &out);
  return out;
}

std::string ToChromeTrace(const TraceSpan& root) {
  Json doc = Json::MakeObject();
  Json events = Json::MakeArray();
  AppendChromeEvents(root, &events);
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", Json::Str("ms"));
  return doc.Dump(1);
}

}  // namespace zv
