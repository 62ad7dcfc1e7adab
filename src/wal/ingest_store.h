#ifndef EXPBSI_WAL_INGEST_STORE_H_
#define EXPBSI_WAL_INGEST_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/experiment_data.h"
#include "storage/snapshot.h"
#include "wal/delta_builder.h"
#include "wal/wal.h"

namespace expbsi {

// Snapshot + WAL point-in-time recovery (DESIGN.md §8.4): the streaming
// warehouse. An IngestStore owns
//   * a live ExperimentBsiData kept current by DeltaBuilder merges,
//   * a WalWriter every ingested batch is appended to BEFORE it is merged,
//   * a snapshot directory it checkpoints into.
//
// Recovery contract: Open() loads the newest good snapshot (whose meta blob
// records the WAL sequence it contains), then replays only the WAL records
// with a larger sequence. A crash between the snapshot commit and the WAL
// trim is therefore harmless -- the overlapping records are skipped by
// sequence, never applied twice. A crash mid-append loses at most the
// record being appended (WalWriter's torn-tail repair), and everything
// durable replays deterministically: same log, same store, bit for bit.
struct IngestOptions {
  WalOptions wal;
  // Shape of the live data; must stay fixed for the lifetime of the store
  // (it is persisted in the snapshot meta blob and validated on recovery).
  int num_segments = 1;
  int num_buckets = 0;
  bool bucket_equals_segment = true;
};

struct IngestRecoveryReport {
  RecoveryReport snapshot;
  WalRecoveryReport wal;
  // True when no usable snapshot existed and the store started empty.
  bool cold_start = false;
  // WAL sequence the snapshot contained (0 = cold start).
  uint64_t checkpoint_sequence = 0;
  // WAL records / events actually applied on top of the snapshot.
  uint64_t records_applied = 0;
  uint64_t events_applied = 0;
};

struct IngestCheckpointStats {
  SnapshotWriteStats snapshot;
  // WAL sequence the checkpoint covers and segment files trimmed after it.
  uint64_t sequence = 0;
  uint32_t wal_segments_removed = 0;
};

// Format of the snapshot meta blob (BsiKind::kState, kIngestMetaBlobId).
inline constexpr uint32_t kIngestMetaFormatVersion = 1;

class IngestStore {
 public:
  // Recovers (or cold-starts) the store: snapshot first, WAL tail second.
  // A snapshot that exists but is partially lost or shape-incompatible
  // fails with Corruption -- an ingest store must not silently serve from
  // a store missing segments it will keep appending to.
  static Result<std::unique_ptr<IngestStore>> Open(
      const std::string& wal_dir, const std::string& snapshot_dir,
      const IngestOptions& options, IngestRecoveryReport* report = nullptr);

  IngestStore(const IngestStore&) = delete;
  IngestStore& operator=(const IngestStore&) = delete;

  // Appends `events` as one WAL record, then merges them into the live
  // data. The merge happens only after the append succeeded: a rejected or
  // crashed append leaves the live data untouched, so memory never gets
  // ahead of the log. Returns the record's sequence number.
  Result<uint64_t> Ingest(const std::vector<WalEvent>& events);

  // Writes a snapshot of the live data (tagged with the last ingested
  // sequence) and trims WAL segments the snapshot covers. Incremental: only
  // the blobs merged since the previous checkpoint (or since Open, WAL-tail
  // replay included) are serialized and written, as delta files on top of
  // the committed snapshot (SnapshotWriter::WriteDelta). On failure the
  // previous snapshot and the full WAL stay intact, and the next checkpoint
  // writes the same blobs again.
  Result<IngestCheckpointStats> Checkpoint();

  // The whole live data serialized, kState blobs (meta + encoders)
  // included: what recovering the latest checkpoint yields when nothing
  // was ingested after it.
  BsiStore BuildSnapshotStore() const;

  const ExperimentBsiData& data() const { return live_; }
  uint64_t last_sequence() const { return last_sequence_; }
  uint64_t checkpoint_sequence() const { return checkpoint_sequence_; }
  const WalWriter& wal() const { return *wal_; }
  const std::string& snapshot_dir() const { return snapshot_dir_; }

 private:
  IngestStore(std::string snapshot_dir, IngestOptions options);

  // Serializes the live blob under `key` (which must exist) / every blob
  // of `segment`, in BuildSnapshotStore's layout.
  std::string SerializeBlob(const BsiStoreKey& key) const;
  void SerializeSegment(uint16_t segment, BsiStore* out) const;

  std::string snapshot_dir_;
  IngestOptions options_;
  ExperimentBsiData live_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t last_sequence_ = 0;        // last sequence merged into live_
  uint64_t checkpoint_sequence_ = 0;  // last sequence covered by a snapshot
  // Snapshot version the live data was last committed as (0 = none), the
  // blobs merged since then, and the payload bytes of every blob that
  // version holds (the writer's live sizes for the 2x rule). Every live
  // blob is in `persisted_bytes_`, in `dirty_`, or both.
  uint64_t snapshot_version_ = 0;
  BsiStoreKeySet dirty_;
  std::unordered_map<BsiStoreKey, uint64_t, BsiStoreKeyHash>
      persisted_bytes_;
};

}  // namespace expbsi

#endif  // EXPBSI_WAL_INGEST_STORE_H_
