#ifndef EXPBSI_STORAGE_SNAPSHOT_H_
#define EXPBSI_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/bsi_store.h"

namespace expbsi {

// Crash-consistent persistence for the BSI warehouse (DESIGN.md §6).
//
// A snapshot of a BsiStore is a directory of per-segment files plus a
// versioned manifest:
//
//   seg-<segment>-<version>.snap   a segment file written by <version>
//   MANIFEST-<version>             the commit record for that version
//
// The manifest lists a *chain* of segment files per segment: a base file,
// then the delta files later versions appended. A delta holds only the
// blobs that changed since the previous version; recovery reads a chain in
// order and a later record of a key replaces an earlier one. A segment is
// rewritten as a fresh one-file chain (compacted) when its superseded bytes
// would exceed its live bytes, which caps space amplification at 2x.
//
// Every file is published with write-temp -> fsync -> atomic-rename
// (fileio::WriteFileAtomic) under a name no committed manifest uses, and a
// version is LIVE only once its manifest rename lands -- a kill at any byte
// offset leaves either the previous snapshot or the new one fully intact,
// never a torn mix. Recovery scans manifests newest-first and takes the
// first one that validates; segment files are checked block by block
// (CRC32C + the Put-time BlobFingerprint), and one bad file loses its whole
// segment, which is quarantined and *reported*, never silently dropped or
// half-loaded. All integers are little-endian (common/byte_io.h).

// Everything Recover() observed, in the style of QueryStats::DegradedInfo:
// losses are explicit, enumerated and classified.
struct RecoveryReport {
  // Version of the manifest recovery loaded from (0 = none found).
  uint64_t manifest_version = 0;
  // Newer manifests that existed but failed validation (torn commit of a
  // later version; recovery fell back past them).
  uint32_t manifests_skipped = 0;
  // Segments loaded intact, and segments whose file was missing/corrupt.
  // Both sorted and unique; their union is the manifest's segment list.
  std::vector<uint16_t> segments_recovered;
  std::vector<uint16_t> lost_segments;
  // Files renamed to <name>.quarantine for offline inspection.
  std::vector<std::string> quarantined_files;
  // One classified line per validation failure (taxonomy: truncated /
  // torn / bitflip / version-mismatch / fingerprint mismatch).
  std::vector<std::string> errors;
  uint64_t blobs_recovered = 0;
  uint64_t bytes_recovered = 0;

  bool fully_recovered() const { return lost_segments.empty(); }
};

struct SnapshotWriteStats {
  uint64_t version = 0;
  // Segment files written: one base or delta file per segment that changed.
  uint32_t segment_files = 0;
  // Of those, delta files appended to an existing chain, and segments
  // rewritten as a one-file chain because of the 2x rule.
  uint32_t delta_files = 0;
  uint32_t compactions = 0;
  uint64_t bytes_written = 0;
  // Files neither the new manifest nor the previous one references,
  // removed after the commit (best effort).
  uint32_t gc_removed = 0;
};

// Live size of one segment: its blob count and payload bytes.
struct SnapshotSegmentSize {
  uint64_t blobs = 0;
  uint64_t payload_bytes = 0;
};

// One snapshot version expressed as a change to the version before it.
struct SnapshotDelta {
  // The committed version `changed` is relative to; 0 = none, every segment
  // is written whole. When the directory's newest valid manifest is not
  // this version, the writer also writes every segment whole.
  uint64_t base_version = 0;
  // Blobs added or replaced since `base_version`. Not owned.
  const BsiStore* changed = nullptr;
  // Every segment of the new version with its live size (all its blobs,
  // changed or not). Segments the base lists but this map does not are
  // dropped; a changed blob of an unlisted segment is InvalidArgument.
  std::map<uint16_t, SnapshotSegmentSize> live;
  // Adds the blobs of `segment` to `out`. Called for each segment written
  // whole; the blobs in `changed` take precedence over what it adds. May be
  // empty when `changed` holds every blob.
  std::function<void(uint16_t segment, BsiStore* out)> load_segment;
};

class SnapshotWriter {
 public:
  // Writes a new snapshot version of `store` into `dir` (created if
  // missing): the everything-dirty case of WriteDelta, so every segment
  // becomes a one-file chain. On success the new version is durably
  // committed and files only older manifests reference are
  // garbage-collected. On failure the previously committed snapshot is
  // untouched (at most stale .tmp / unreferenced files remain, which
  // recovery ignores and the next successful write cleans up).
  static Result<SnapshotWriteStats> Write(const BsiStore& store,
                                          const std::string& dir);

  // Writes the next version as `delta` on top of the newest committed one:
  // a delta file per changed segment (or a fresh base where the 2x rule
  // compacts), and unchanged segments keep their chain. Same commit and
  // failure contract as Write.
  static Result<SnapshotWriteStats> WriteDelta(const SnapshotDelta& delta,
                                               const std::string& dir);

 private:
  // The write itself; WriteDelta adds the observability shell (snapshot.*
  // counters and the trace span).
  static Result<SnapshotWriteStats> WriteImpl(const SnapshotDelta& delta,
                                              const std::string& dir);
};

class SnapshotReader {
 public:
  // Rebuilds a store from the newest valid manifest in `dir`. See
  // BsiStore::Recover (which delegates here) for the contract. `report`
  // may be nullptr.
  static Result<BsiStore> Recover(const std::string& dir,
                                  RecoveryReport* report);

  // Versions that have a manifest file in `dir`, ascending. Purely
  // name-based (no validation); empty when the directory is missing.
  static std::vector<uint64_t> ListManifestVersions(const std::string& dir);
};

// A decoded manifest, exposed for tests and the fuzz harness.
struct SnapshotChainFile {
  std::string name;
  uint64_t version = 0;
  uint64_t file_size = 0;
  uint64_t blob_count = 0;
};

struct SnapshotChain {
  uint16_t segment = 0;
  std::vector<SnapshotChainFile> files;  // base first, then deltas
  // Non-empty when the chain breaks a chain rule (empty chain, versions not
  // strictly increasing -- a duplicate file -- or newer than the manifest,
  // a name other than SnapshotSegmentFileName(segment, version), a size
  // over the cap). Recovery loses such a segment and reports this.
  std::string error;
};

struct SnapshotManifest {
  uint64_t version = 0;
  std::vector<SnapshotChain> chains;  // strictly increasing segment ids
};

// Decodes the bytes of MANIFEST-<name_version>. Checksum, header, counts
// (capped against the remaining bytes before any allocation) and framing
// failures are Corruption; chain-rule violations mark only their chain.
Result<SnapshotManifest> DecodeSnapshotManifest(std::string_view bytes,
                                                uint64_t name_version);
std::string EncodeSnapshotManifest(const SnapshotManifest& manifest);

// Format constants, exposed for tests and the fuzz harness. Version 2 is
// the chain manifest with every integer pinned to little-endian; a version
// 1 directory is refused as a version-mismatch.
inline constexpr uint32_t kSnapshotFormatVersion = 2;
inline constexpr uint32_t kSegmentFileMagic = 0x45425353;   // "EBSS"
inline constexpr uint32_t kManifestFileMagic = 0x4542534D;  // "EBSM"
// Per-record header inside a segment file:
// [segment u16][kind u8][id u64][date u32][len u32][fingerprint u64],
// followed by [header crc u32][payload][payload crc u32].
inline constexpr size_t kSnapshotRecordHeaderBytes = 2 + 1 + 8 + 4 + 4 + 8;
inline constexpr size_t kSnapshotRecordFramingBytes =
    kSnapshotRecordHeaderBytes + 2 * sizeof(uint32_t);
// Segment-file header: [magic u32][format u32][segment u16][version u64]
// [blob count u64].
inline constexpr size_t kSegmentFileHeaderBytes = 4 + 4 + 2 + 8 + 8;
// Read caps: a snapshot file larger than this is refused before any
// allocation sized from its metadata.
inline constexpr uint64_t kMaxSegmentFileBytes = 1ull << 30;
inline constexpr uint64_t kMaxManifestBytes = 16ull << 20;

// File-name helpers (version rendered as 16 hex digits so lexicographic
// order matches numeric order).
std::string SnapshotManifestName(uint64_t version);
std::string SnapshotSegmentFileName(uint16_t segment, uint64_t version);

}  // namespace expbsi

#endif  // EXPBSI_STORAGE_SNAPSHOT_H_
