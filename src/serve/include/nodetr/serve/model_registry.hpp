// serve::ModelRegistry — immutable, versioned weight snapshots for live
// model updates.
//
// Every version is an immutable `ModelVersion` held behind a
// shared_ptr<const ...>: once published it never changes, so workers can
// stage it into their replicas (and boards) without coordinating with the
// publisher — the RCU handoff in InferenceEngine only ever swaps which
// snapshot a session points at, at a batch boundary.
//
// Version lifecycle:
//
//            publish() / publish_checkpoint()
//                         │
//                         ▼
//                    kCandidate ──begin_swap──► canary traffic
//                         │                        │
//             reject()    │                        │ activate() (promotion)
//           (rollback) ◄──┘                        ▼
//              kRejected                        kActive ──next activate──►
//                                                               kRetired
//
// The previously active version is *retired*, not deleted: rollback targets
// and post-mortems need it, so the registry keeps the most recent
// `keep_retired` retired/rejected snapshots and evicts older ones.
//
// Validation happens at publish time, before a version id is minted:
//   - publish(weights) checks every tensor against the registry's
//     structural contract (the geometry of the seed version: wq/wk/wv
//     shapes, relative-table shapes, LayerNorm params present or not) and
//     rejects non-finite values, naming the offending tensor — a corrupt
//     candidate can never reach a live session;
//   - publish_checkpoint(path) goes through train::load_checkpoint's
//     stage-validate-commit path into a scratch module, so a truncated /
//     corrupt / structurally mismatched file throws train::CheckpointError
//     (with the mismatching param named) and publishes nothing.
//
// Thread-safe: all methods may be called concurrently (a publisher thread
// may publish while the engine's workers read).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nodetr/hls/mhsa_ip.hpp"

namespace nodetr::serve {

enum class VersionState {
  kCandidate,  ///< published, not yet serving traffic
  kActive,     ///< the version non-canary traffic runs on
  kRetired,    ///< was active; kept as a rollback target
  kRejected,   ///< canary rolled back (or manually rejected)
};

[[nodiscard]] const char* to_string(VersionState state);

/// One immutable weight snapshot. `weights` are the float master copy; each
/// session re-derives its own wire form (block-quantized DDR image, fixed
/// pre-quantization) from them when it stages the version.
struct ModelVersion {
  std::uint64_t id = 0;
  hls::MhsaWeights weights;
  std::string note;
  std::chrono::steady_clock::time_point published_at{};
};

/// One row of ModelRegistry::list().
struct VersionInfo {
  std::uint64_t id = 0;
  VersionState state = VersionState::kCandidate;
  std::string note;
};

class ModelRegistry {
 public:
  /// Seeds the registry with version 1 (= `seed`, immediately kActive) and
  /// fixes the structural contract every later publish must match: the
  /// design point's geometry plus the seed's optional-tensor structure
  /// (relative tables, LayerNorm params).
  ModelRegistry(hls::MhsaDesignPoint point, hls::MhsaWeights seed, std::size_t keep_retired = 4);

  /// Validate `weights` against the structural contract and store them as a
  /// new kCandidate version; returns the minted version id. Throws
  /// std::invalid_argument naming the offending tensor on a shape/structure
  /// mismatch or non-finite values — and publishes nothing.
  std::uint64_t publish(hls::MhsaWeights weights, std::string note = "");

  /// Publish from a checkpoint file (v1 float or v2 block-quantized NDCK):
  /// the container is loaded through train::load_checkpoint's
  /// stage-validate-commit path into a scratch module of this registry's
  /// geometry, so corruption or structural mismatch throws
  /// train::CheckpointError (naming the mismatching param) before any
  /// version id is minted.
  std::uint64_t publish_checkpoint(const std::string& path, std::string note = "");

  /// The snapshot for `id`; throws std::invalid_argument for unknown ids
  /// (including evicted ones).
  [[nodiscard]] std::shared_ptr<const ModelVersion> get(std::uint64_t id) const;
  /// Like get(), but nullptr for unknown ids.
  [[nodiscard]] std::shared_ptr<const ModelVersion> find(std::uint64_t id) const;

  [[nodiscard]] VersionState state(std::uint64_t id) const;
  /// The currently active version id (the registry always has one).
  [[nodiscard]] std::uint64_t active() const;
  /// All retained versions, ascending by id.
  [[nodiscard]] std::vector<VersionInfo> list() const;
  [[nodiscard]] std::size_t size() const;

  /// Make `id` the active version: the previous active is retired (and old
  /// retired/rejected versions beyond keep_retired evicted). The engine's
  /// swap commit calls this; `id` must be kCandidate or kRetired (a manual
  /// roll-back to a prior version re-activates a retired snapshot). Throws
  /// std::invalid_argument for unknown ids, rejected versions, or the
  /// already-active version.
  void activate(std::uint64_t id);

  /// Mark a candidate kRejected (auto-rollback). Throws
  /// std::invalid_argument unless `id` is a kCandidate.
  void reject(std::uint64_t id);

 private:
  struct Entry {
    std::shared_ptr<const ModelVersion> version;
    VersionState state = VersionState::kCandidate;
  };

  /// Shape/structure/finiteness check; throws naming the offending tensor.
  void validate(const hls::MhsaWeights& weights) const;
  void evict_old_locked();

  /// The seed's layer on the design point's geometry: every version must
  /// carry the same optional tensors.
  nn::MhsaConfig config_;
  std::size_t keep_retired_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry> entries_;
  std::uint64_t next_id_ = 1;
  std::uint64_t active_id_ = 0;
};

}  // namespace nodetr::serve
