/// \file fingerprint.h
/// \brief Canonicalized query fingerprints — the ResultCache key.
///
/// Two requests must share a cache entry exactly when they would produce
/// byte-identical results. The fingerprint therefore covers every
/// result-relevant coordinate:
///  - the canonical *AST* serialization (zql::CanonicalText of the parsed
///    or builder-built query), so cosmetic retyping, reordered whitespace,
///    AND a ZqlBuilder-built equivalent of typed text all share one entry;
///  - the dataset name AND its epoch — any table mutation bumps the epoch,
///    so a stale entry's key simply stops being generated and can never be
///    served again (ReplaceDataset also releases it);
///  - the effective optimization level and backend name;
///  - a content hash of the session's registered user-input sketches, since
///    `-f1` rows bind data that exists nowhere in the table. Sessions with
///    no sketches hash to the same empty token, so their entries are shared
///    service-wide.

#ifndef ZV_SERVER_FINGERPRINT_H_
#define ZV_SERVER_FINGERPRINT_H_

#include <cstdint>
#include <map>
#include <string>

#include "viz/visualization.h"
#include "zql/executor.h"

namespace zv::server {

/// Content hash of a session's registered user-input visualizations
/// (name binding + identity + data). Empty map hashes to "".
std::string UserInputsFingerprint(
    const std::map<std::string, Visualization>& inputs);

/// The ResultCache key for one request.
std::string QueryFingerprint(const std::string& dataset, uint64_t epoch,
                             const std::string& backend,
                             zql::OptLevel optimization,
                             const std::string& canonical_zql,
                             const std::string& user_inputs_fp);

}  // namespace zv::server

#endif  // ZV_SERVER_FINGERPRINT_H_
