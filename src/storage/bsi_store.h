#ifndef EXPBSI_STORAGE_BSI_STORE_H_
#define EXPBSI_STORAGE_BSI_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"

namespace expbsi {

// 64-bit content fingerprint (word-at-a-time Mix64 chain, not
// cryptographic). The warehouse records it at Put time and the tiered store
// verifies every cold-tier transfer against it, so a corrupted transfer
// surfaces as Status::Corruption -- never as a silently wrong decode.
uint64_t BlobFingerprint(std::string_view bytes);

// What a stored blob represents. kState blobs carry non-BSI warehouse
// state that must survive a crash alongside the BSIs (the ingest store's
// checkpoint metadata and position encoders, src/wal/ingest_store.h); the
// query paths skip them.
enum class BsiKind : uint8_t {
  kExpose = 0,
  kMetric = 1,
  kDimension = 2,
  kState = 3,
};

// Key of one BSI blob in the warehouse: (segment, kind, id, date), where id
// is the strategy-id / metric-id / dimension-id and date is 0 for expose
// blobs (an expose log is per strategy, not per date -- Table 2).
struct BsiStoreKey {
  uint16_t segment = 0;
  BsiKind kind = BsiKind::kMetric;
  uint64_t id = 0;
  uint32_t date = 0;

  friend bool operator==(const BsiStoreKey& a, const BsiStoreKey& b) {
    return a.segment == b.segment && a.kind == b.kind && a.id == b.id &&
           a.date == b.date;
  }
};

struct BsiStoreKeyHash {
  size_t operator()(const BsiStoreKey& k) const;
};

using BsiStoreKeySet = std::unordered_set<BsiStoreKey, BsiStoreKeyHash>;

struct RecoveryReport;  // see storage/snapshot.h

// In-memory stand-in for the "distributed data warehouse system" of Fig. 7:
// a keyed blob store holding serialized BSI representations. The ad-hoc
// cluster's cold tier reads from here (with simulated network accounting in
// TieredStore); the pre-compute pipeline reads from here directly.
class BsiStore {
 public:
  BsiStore() = default;

  BsiStore(const BsiStore&) = delete;
  BsiStore& operator=(const BsiStore&) = delete;
  BsiStore(BsiStore&&) = default;
  BsiStore& operator=(BsiStore&&) = default;

  // Stores `bytes` under `key`, replacing any previous blob.
  void Put(const BsiStoreKey& key, std::string bytes);

  // Put for the recovery path: the blob arrived from disk rather than from
  // a builder, so it keeps the fingerprint recorded before the crash and is
  // flagged so TieredStore re-verifies it unconditionally on first fetch.
  void PutRecovered(const BsiStoreKey& key, std::string bytes,
                    uint64_t fingerprint);

  // True iff the blob was loaded by Recover() rather than built in-process.
  bool WasRecovered(const BsiStoreKey& key) const;

  bool Contains(const BsiStoreKey& key) const;

  // Returns a view of the stored blob (valid until the next Put).
  Result<const std::string*> Get(const BsiStoreKey& key) const;

  // Fingerprint recorded when the blob was Put (metadata lookup; never
  // subject to fault injection), or NotFound.
  Result<uint64_t> Fingerprint(const BsiStoreKey& key) const;

  size_t NumBlobs() const { return blobs_.size(); }

  // Total stored bytes (the BSI "original size" of Table 4).
  size_t TotalBytes() const { return total_bytes_; }

  // Persistence: the warehouse contents as one file of length-prefixed
  // records. IO and format problems surface as Status.
  Status SaveToFile(const std::string& path) const;
  static Result<BsiStore> LoadFromFile(const std::string& path);

  // Rebuilds a store from the newest valid snapshot manifest in `dir`
  // (written by SnapshotWriter, storage/snapshot.h). Torn, truncated or
  // bitflipped segment files are quarantined and reported in `report`
  // (never silently absent); only a missing/unusable snapshot directory or
  // the absence of any valid manifest fails the whole recovery.
  static Result<BsiStore> Recover(const std::string& dir,
                                  RecoveryReport* report = nullptr);

  // Invokes fn(key, bytes) for every stored blob (unspecified order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, entry] : blobs_) fn(key, entry.bytes);
  }

  // Metadata walk: fn(key, bytes, fingerprint). The snapshot writer uses
  // this to carry the Put-time fingerprint through to disk.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& [key, entry] : blobs_) {
      fn(key, entry.bytes, entry.fingerprint);
    }
  }

 private:
  struct Entry {
    std::string bytes;
    uint64_t fingerprint = 0;
    bool recovered = false;
  };

  std::unordered_map<BsiStoreKey, Entry, BsiStoreKeyHash> blobs_;
  size_t total_bytes_ = 0;
};

}  // namespace expbsi

#endif  // EXPBSI_STORAGE_BSI_STORE_H_
