#include "storage/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/crc32c.h"
#include "common/fault_injector.h"
#include "common/file_io.h"
#include "common/hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wire/byte_io.h"

namespace expbsi {
namespace {

// ---- file-name parsing ---------------------------------------------------

bool ParseHex16(std::string_view s, uint64_t* out) {
  if (s.size() != 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

bool ParseManifestName(const std::string& name, uint64_t* version) {
  constexpr std::string_view kPrefix = "MANIFEST-";
  if (name.size() != kPrefix.size() + 16 || name.rfind(kPrefix, 0) != 0) {
    return false;
  }
  return ParseHex16(std::string_view(name).substr(kPrefix.size()), version);
}

bool ParseSegmentFileName(const std::string& name, uint16_t* segment,
                          uint64_t* version) {
  // seg-<decimal segment>-<16 hex digits>.snap
  constexpr std::string_view kPrefix = "seg-";
  constexpr std::string_view kSuffix = ".snap";
  if (name.size() < kPrefix.size() + 1 + 1 + 16 + kSuffix.size() ||
      name.rfind(kPrefix, 0) != 0 ||
      name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
          0) {
    return false;
  }
  const size_t dash = name.find('-', kPrefix.size());
  if (dash == std::string::npos ||
      name.size() - kSuffix.size() - (dash + 1) != 16) {
    return false;
  }
  uint32_t seg = 0;
  for (size_t i = kPrefix.size(); i < dash; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    seg = seg * 10 + static_cast<uint32_t>(name[i] - '0');
    if (seg > 65535) return false;
  }
  if (dash == kPrefix.size()) return false;
  if (!ParseHex16(
          std::string_view(name).substr(dash + 1, 16), version)) {
    return false;
  }
  *segment = static_cast<uint16_t>(seg);
  return true;
}

// ---- manifest ------------------------------------------------------------

// Manifest layout: [magic u32][format u32][version u64][num_chains u32],
// then per chain [segment u16][num_files u32] and per file
// [name_len u32][name][version u64][file_size u64][blob_count u64], closed
// by [crc32c u32] over all preceding bytes.
constexpr size_t kManifestHeaderBytes = 4 + 4 + 8 + 4;
constexpr size_t kManifestChainHeaderBytes = 2 + 4;
constexpr size_t kManifestFileMinBytes = 4 + 8 + 8 + 8;
// SnapshotSegmentFileName yields at most 31 bytes; the cap bounds the copy.
constexpr uint32_t kMaxFileNameBytes = 64;

std::string ChainError(const SnapshotChain& chain, uint64_t manifest_version) {
  if (chain.files.empty()) return "empty chain";
  uint64_t prev = 0;
  for (const SnapshotChainFile& f : chain.files) {
    if (f.version <= prev) {
      return f.version == prev && prev != 0
                 ? "duplicate file " + f.name
                 : std::string("chain versions not increasing");
    }
    if (f.version > manifest_version) {
      return "file version newer than the manifest";
    }
    // The writer derives the name from (segment, version); enforcing that
    // pins the format and rules out path tricks in a crafted manifest.
    if (f.name != SnapshotSegmentFileName(chain.segment, f.version)) {
      return "unexpected segment file name \"" + f.name + "\"";
    }
    if (f.file_size > kMaxSegmentFileBytes) {
      return "segment file size over cap";
    }
    prev = f.version;
  }
  return "";
}

Result<SnapshotManifest> ReadManifest(const std::string& dir,
                                      uint64_t name_version) {
  Result<std::string> bytes = fileio::ReadFileToString(
      dir + "/" + SnapshotManifestName(name_version), kMaxManifestBytes);
  RETURN_IF_ERROR(bytes.status());
  return DecodeSnapshotManifest(bytes.value(), name_version);
}

// ---- segment files -------------------------------------------------------

struct DecodedRecord {
  BsiStoreKey key;
  std::string_view payload;
  uint64_t fingerprint = 0;
};

// Full validation of one segment file against its chain entry. Any failure
// is a classified Status::Corruption; on success `out` holds views into
// `bytes`.
Status DecodeSegmentFile(std::string_view bytes, uint16_t segment,
                         const SnapshotChainFile& file,
                         std::vector<DecodedRecord>* out) {
  const std::string& fname = file.name;
  if (bytes.size() != file.file_size) {
    return Status::Corruption(
        fname + ": size " + std::to_string(bytes.size()) +
        " does not match manifest (" + std::to_string(file.file_size) +
        ") -- truncated or torn write");
  }
  wire::ByteReader r(bytes);
  uint32_t magic = 0, format = 0;
  uint16_t file_segment = 0;
  uint64_t file_version = 0, blob_count = 0;
  if (!r.ReadU32(&magic) || !r.ReadU32(&format) ||
      !r.ReadU16(&file_segment) || !r.ReadU64(&file_version) ||
      !r.ReadU64(&blob_count)) {
    return Status::Corruption(fname + ": truncated header");
  }
  if (magic != kSegmentFileMagic) {
    return Status::Corruption(fname + ": bad segment file magic");
  }
  if (format != kSnapshotFormatVersion) {
    return Status::Corruption(fname + ": format version-mismatch (" +
                              std::to_string(format) + ")");
  }
  if (file_segment != segment) {
    return Status::Corruption(fname + ": segment id mismatch");
  }
  if (file_version != file.version) {
    return Status::Corruption(fname + ": snapshot version mismatch");
  }
  if (blob_count != file.blob_count) {
    return Status::Corruption(fname + ": blob count mismatch vs manifest");
  }
  out->clear();
  if (blob_count > r.remaining() / kSnapshotRecordFramingBytes) {
    return Status::Corruption(fname + ": blob count exceeds file size");
  }
  out->reserve(blob_count);
  for (uint64_t i = 0; i < blob_count; ++i) {
    std::string_view header;
    uint32_t header_crc = 0;
    if (!r.ReadView(kSnapshotRecordHeaderBytes, &header) ||
        !r.ReadU32(&header_crc)) {
      return Status::Corruption(fname + ": truncated record header");
    }
    // The header CRC is verified before `len` is trusted, so a bitflipped
    // length can never drive a huge read or allocation.
    if (Crc32c(header) != header_crc) {
      return Status::Corruption(fname + ": record header checksum mismatch "
                                        "(bitflip)");
    }
    DecodedRecord rec;
    uint8_t kind = 0;
    uint32_t len = 0;
    wire::ByteReader h(header);
    h.ReadU16(&rec.key.segment);
    h.ReadU8(&kind);
    h.ReadU64(&rec.key.id);
    h.ReadU32(&rec.key.date);
    h.ReadU32(&len);
    h.ReadU64(&rec.fingerprint);
    if (kind > 3) {
      return Status::Corruption(fname + ": bad kind byte");
    }
    rec.key.kind = static_cast<BsiKind>(kind);
    if (rec.key.segment != segment) {
      return Status::Corruption(fname + ": record for foreign segment");
    }
    uint32_t payload_crc = 0;
    if (len > r.remaining() || r.remaining() - len < sizeof(uint32_t)) {
      return Status::Corruption(fname + ": record length exceeds file");
    }
    r.ReadView(len, &rec.payload);
    r.ReadU32(&payload_crc);
    if (Crc32c(rec.payload) != payload_crc) {
      return Status::Corruption(fname + ": payload checksum mismatch "
                                        "(bitflip)");
    }
    if (BlobFingerprint(rec.payload) != rec.fingerprint) {
      return Status::Corruption(fname + ": payload fingerprint mismatch");
    }
    out->push_back(rec);
  }
  if (r.remaining() != 0) {
    return Status::Corruption(fname + ": trailing garbage after records");
  }
  return Status::OK();
}

struct RecordRef {
  BsiStoreKey key;
  const std::string* bytes = nullptr;
  uint64_t fingerprint = 0;
};
// One segment's records ordered by (kind, id, date), so the same blobs
// always serialize to the same bytes.
using RecordOrder = std::tuple<BsiKind, uint64_t, uint32_t>;
using SegmentRecords = std::map<RecordOrder, RecordRef>;

void AddRecord(const BsiStoreKey& key, const std::string& bytes,
               uint64_t fingerprint, SegmentRecords* records) {
  records->try_emplace(RecordOrder{key.kind, key.id, key.date},
                       RecordRef{key, &bytes, fingerprint});
}

uint64_t SegmentFileBytes(const SegmentRecords& records) {
  uint64_t total = kSegmentFileHeaderBytes;
  for (const auto& [order, rec] : records) {
    total += kSnapshotRecordFramingBytes + rec.bytes->size();
  }
  return total;
}

std::string BuildSegmentFile(uint16_t segment, uint64_t version,
                             const SegmentRecords& records) {
  std::string out;
  out.reserve(SegmentFileBytes(records));
  wire::PutU32(&out, kSegmentFileMagic);
  wire::PutU32(&out, kSnapshotFormatVersion);
  wire::PutU16(&out, segment);
  wire::PutU64(&out, version);
  wire::PutU64(&out, records.size());
  for (const auto& [order, rec] : records) {
    const size_t header_start = out.size();
    wire::PutU16(&out, rec.key.segment);
    wire::PutU8(&out, static_cast<uint8_t>(rec.key.kind));
    wire::PutU64(&out, rec.key.id);
    wire::PutU32(&out, rec.key.date);
    wire::PutU32(&out, static_cast<uint32_t>(rec.bytes->size()));
    wire::PutU64(&out, rec.fingerprint);
    wire::PutU32(&out, Crc32c(out.data() + header_start,
                              kSnapshotRecordHeaderBytes));
    out += *rec.bytes;
    wire::PutU32(&out, Crc32c(*rec.bytes));
  }
  return out;
}

// Renames a failed segment file out of the live set; best effort.
void Quarantine(const std::string& dir, const std::string& file_name,
                RecoveryReport* report) {
  const std::string from = dir + "/" + file_name;
  const std::string to = from + ".quarantine";
  if (fileio::FileSizeOf(from).ok() && fileio::RenameFile(from, to).ok()) {
    report->quarantined_files.push_back(file_name + ".quarantine");
  }
}

// Reads and validates every file of `chain`, oldest first; a later record
// of a key replaces an earlier one. Only a chain whose every file validates
// reaches `store` -- a late corrupt file never leaves a half-loaded segment
// behind. The failing file is quarantined.
Status LoadChain(const std::string& dir, const SnapshotChain& chain,
                 BsiStore* store, RecoveryReport* report) {
  FaultInjector* const fi = FaultInjector::Get();
  std::vector<std::string> files;  // owns the bytes `live` views
  files.reserve(chain.files.size());
  std::unordered_map<BsiStoreKey, DecodedRecord, BsiStoreKeyHash> live;
  for (const SnapshotChainFile& file : chain.files) {
    Result<std::string> bytes =
        fileio::ReadFileToString(dir + "/" + file.name, kMaxSegmentFileBytes);
    if (fi != nullptr) {
      const FaultDecision fault = fi->Evaluate(fault_sites::kSnapshotRead);
      if (fault.fail) {
        bytes = Status::Unavailable(file.name + ": injected unreadable file");
      } else if (fault.corrupt && bytes.ok() && !bytes.value().empty()) {
        std::string flipped = std::move(bytes).value();
        fi->CorruptBlob(Mix64(file.version) ^ chain.segment, &flipped);
        bytes = std::move(flipped);
      }
    }
    Status status = bytes.status();
    std::vector<DecodedRecord> records;
    if (status.ok()) {
      files.push_back(std::move(bytes).value());
      status = DecodeSegmentFile(files.back(), chain.segment, file, &records);
    }
    if (!status.ok()) {
      Quarantine(dir, file.name, report);
      return status;
    }
    for (const DecodedRecord& rec : records) live[rec.key] = rec;
  }
  for (const auto& [key, rec] : live) {
    report->bytes_recovered += rec.payload.size();
    ++report->blobs_recovered;
    store->PutRecovered(key, std::string(rec.payload), rec.fingerprint);
  }
  return Status::OK();
}

// After a durable commit: removes every manifest and segment file that
// neither `current` nor `previous` (the fallback target) references, and
// stray .tmp files of aborted attempts. Best effort -- leftovers are
// ignored by recovery and retried by the next write.
uint32_t CollectGarbage(const std::string& dir,
                        const SnapshotManifest& current,
                        const SnapshotManifest* previous) {
  std::unordered_set<std::string> keep;
  for (const SnapshotManifest* m : {&current, previous}) {
    if (m == nullptr) continue;
    keep.insert(SnapshotManifestName(m->version));
    for (const SnapshotChain& chain : m->chains) {
      for (const SnapshotChainFile& file : chain.files) keep.insert(file.name);
    }
  }
  Result<std::vector<std::string>> names = fileio::ListDir(dir);
  if (!names.ok()) return 0;
  uint32_t removed = 0;
  for (const std::string& name : names.value()) {
    uint64_t v = 0;
    uint16_t seg = 0;
    bool garbage = false;
    if (ParseManifestName(name, &v) || ParseSegmentFileName(name, &seg, &v)) {
      garbage = keep.count(name) == 0;
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      garbage = true;
    }
    if (garbage && fileio::RemoveFileIfExists(dir + "/" + name).ok()) {
      ++removed;
    }
  }
  return removed;
}

}  // namespace

std::string SnapshotManifestName(uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "MANIFEST-%016llx",
                static_cast<unsigned long long>(version));
  return buf;
}

std::string SnapshotSegmentFileName(uint16_t segment, uint64_t version) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "seg-%u-%016llx.snap",
                static_cast<unsigned>(segment),
                static_cast<unsigned long long>(version));
  return buf;
}

std::string EncodeSnapshotManifest(const SnapshotManifest& manifest) {
  std::string out;
  wire::PutU32(&out, kManifestFileMagic);
  wire::PutU32(&out, kSnapshotFormatVersion);
  wire::PutU64(&out, manifest.version);
  wire::PutU32(&out, static_cast<uint32_t>(manifest.chains.size()));
  for (const SnapshotChain& chain : manifest.chains) {
    wire::PutU16(&out, chain.segment);
    wire::PutU32(&out, static_cast<uint32_t>(chain.files.size()));
    for (const SnapshotChainFile& file : chain.files) {
      wire::PutString(&out, file.name);
      wire::PutU64(&out, file.version);
      wire::PutU64(&out, file.file_size);
      wire::PutU64(&out, file.blob_count);
    }
  }
  wire::PutU32(&out, Crc32c(out));
  return out;
}

Result<SnapshotManifest> DecodeSnapshotManifest(std::string_view bytes,
                                                uint64_t name_version) {
  const std::string name = SnapshotManifestName(name_version);
  if (bytes.size() < kManifestHeaderBytes + sizeof(uint32_t)) {
    return Status::Corruption(name + ": truncated manifest (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  if (Crc32c(body) != wire::ReadU32(bytes.data() + body.size())) {
    return Status::Corruption(name +
                              ": manifest checksum mismatch (torn write or "
                              "bitflip)");
  }
  wire::ByteReader r(body);
  uint32_t magic = 0, format = 0, num_chains = 0;
  SnapshotManifest m;
  r.ReadU32(&magic);
  r.ReadU32(&format);
  r.ReadU64(&m.version);
  r.ReadU32(&num_chains);
  if (magic != kManifestFileMagic) {
    return Status::Corruption(name + ": bad manifest magic");
  }
  if (format != kSnapshotFormatVersion) {
    return Status::Corruption(name + ": manifest format version-mismatch (" +
                              std::to_string(format) + ", expected " +
                              std::to_string(kSnapshotFormatVersion) + ")");
  }
  if (m.version != name_version) {
    return Status::Corruption(name + ": version field does not match name");
  }
  if (num_chains > r.remaining() / kManifestChainHeaderBytes) {
    return Status::Corruption(name + ": segment count exceeds manifest size");
  }
  m.chains.resize(num_chains);
  for (uint32_t i = 0; i < num_chains; ++i) {
    SnapshotChain& chain = m.chains[i];
    uint32_t num_files = 0;
    if (!r.ReadU16(&chain.segment) || !r.ReadU32(&num_files)) {
      return Status::Corruption(name + ": truncated chain header");
    }
    if (i > 0 && chain.segment <= m.chains[i - 1].segment) {
      return Status::Corruption(name + ": segment ids not strictly " +
                                "increasing");
    }
    if (num_files > r.remaining() / kManifestFileMinBytes) {
      return Status::Corruption(name + ": chain length exceeds manifest size");
    }
    chain.files.resize(num_files);
    for (SnapshotChainFile& file : chain.files) {
      if (!r.ReadString(&file.name, kMaxFileNameBytes) ||
          !r.ReadU64(&file.version) || !r.ReadU64(&file.file_size) ||
          !r.ReadU64(&file.blob_count)) {
        return Status::Corruption(name + ": truncated or oversized file "
                                         "entry");
      }
    }
    chain.error = ChainError(chain, m.version);
  }
  if (r.remaining() != 0) {
    return Status::Corruption(name + ": trailing garbage after entries");
  }
  return m;
}

std::vector<uint64_t> SnapshotReader::ListManifestVersions(
    const std::string& dir) {
  std::vector<uint64_t> versions;
  Result<std::vector<std::string>> names = fileio::ListDir(dir);
  if (!names.ok()) return versions;
  for (const std::string& name : names.value()) {
    uint64_t v = 0;
    if (ParseManifestName(name, &v)) versions.push_back(v);
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

Result<SnapshotWriteStats> SnapshotWriter::Write(const BsiStore& store,
                                                 const std::string& dir) {
  SnapshotDelta all;
  all.changed = &store;
  store.ForEachEntry(
      [&all](const BsiStoreKey& key, const std::string& bytes, uint64_t) {
        SnapshotSegmentSize& size = all.live[key.segment];
        ++size.blobs;
        size.payload_bytes += bytes.size();
      });
  return WriteDelta(all, dir);
}

Result<SnapshotWriteStats> SnapshotWriter::WriteDelta(
    const SnapshotDelta& delta, const std::string& dir) {
  obs::ScopedSpan span("snapshot_write");
  static obs::Counter& writes = obs::GetCounter("snapshot.writes");
  static obs::Counter& write_failures =
      obs::GetCounter("snapshot.write_failures");
  static obs::Counter& bytes_written =
      obs::GetCounter("snapshot.bytes_written");
  static obs::Counter& delta_files =
      obs::GetCounter("snapshot.delta_files_written");
  static obs::Counter& compactions =
      obs::GetCounter("snapshot.segment_compactions");
  writes.Add();
  Result<SnapshotWriteStats> result = WriteImpl(delta, dir);
  if (result.ok()) {
    bytes_written.Add(result.value().bytes_written);
    delta_files.Add(result.value().delta_files);
    compactions.Add(result.value().compactions);
    span.AddAttr("bytes_written", result.value().bytes_written);
    span.AddAttr("version", result.value().version);
    span.AddAttr("delta_files", result.value().delta_files);
  } else {
    write_failures.Add();
  }
  return result;
}

Result<SnapshotWriteStats> SnapshotWriter::WriteImpl(
    const SnapshotDelta& delta, const std::string& dir) {
  RETURN_IF_ERROR(fileio::CreateDirIfMissing(dir));
  const std::vector<uint64_t> existing =
      SnapshotReader::ListManifestVersions(dir);
  const uint64_t version = existing.empty() ? 1 : existing.back() + 1;

  // The newest manifest that validates is what recovery loads today: the
  // version a delta must extend, and the fallback target GC keeps.
  std::optional<SnapshotManifest> previous;
  for (auto it = existing.rbegin(); it != existing.rend(); ++it) {
    Result<SnapshotManifest> m = ReadManifest(dir, *it);
    if (m.ok()) {
      previous = std::move(m).value();
      break;
    }
  }
  std::map<uint16_t, const SnapshotChain*> base_chains;
  if (previous.has_value() && delta.base_version != 0 &&
      previous->version == delta.base_version) {
    for (const SnapshotChain& chain : previous->chains) {
      if (chain.error.empty()) base_chains[chain.segment] = &chain;
    }
  }

  std::map<uint16_t, SegmentRecords> changed;
  if (delta.changed != nullptr) {
    delta.changed->ForEachEntry([&changed](const BsiStoreKey& key,
                                           const std::string& bytes,
                                           uint64_t fingerprint) {
      AddRecord(key, bytes, fingerprint, &changed[key.segment]);
    });
  }
  for (const auto& [segment, records] : changed) {
    if (delta.live.count(segment) == 0) {
      return Status::InvalidArgument(
          "snapshot: changed blob for segment " + std::to_string(segment) +
          " missing from the live segment list");
    }
  }

  SnapshotWriteStats stats;
  stats.version = version;
  fileio::AtomicWriteOptions options;
  options.write_fault_site = fault_sites::kSnapshotWrite;
  options.rename_fault_site = fault_sites::kSnapshotRename;
  SnapshotManifest next;
  next.version = version;
  const SegmentRecords no_records;
  for (const auto& [segment, size] : delta.live) {
    const auto changed_it = changed.find(segment);
    const SegmentRecords& fresh =
        changed_it == changed.end() ? no_records : changed_it->second;
    SnapshotChain chain;
    chain.segment = segment;
    const auto base_it = base_chains.find(segment);
    bool whole = base_it == base_chains.end();
    if (!whole) {
      chain.files = base_it->second->files;
      if (fresh.empty()) {
        next.chains.push_back(std::move(chain));
        continue;
      }
      // The 2x rule: compact when the chain's superseded bytes (all it
      // holds beyond a one-file chain of the live blobs) would exceed the
      // live bytes.
      uint64_t chain_bytes = SegmentFileBytes(fresh);
      for (const SnapshotChainFile& file : chain.files) {
        chain_bytes += file.file_size;
      }
      const uint64_t live_bytes = kSegmentFileHeaderBytes +
                                  size.blobs * kSnapshotRecordFramingBytes +
                                  size.payload_bytes;
      if (chain_bytes > 2 * live_bytes) {
        whole = true;
        chain.files.clear();
        ++stats.compactions;
      }
    }
    BsiStore loaded;  // outlives `all`, which points into it
    SegmentRecords all;
    const SegmentRecords* records = &fresh;
    if (whole) {
      if (delta.load_segment) delta.load_segment(segment, &loaded);
      all = fresh;
      loaded.ForEachEntry([&all, segment](const BsiStoreKey& key,
                                          const std::string& bytes,
                                          uint64_t fingerprint) {
        if (key.segment == segment) AddRecord(key, bytes, fingerprint, &all);
      });
      records = &all;
    }
    const std::string bytes = BuildSegmentFile(segment, version, *records);
    const std::string name = SnapshotSegmentFileName(segment, version);
    RETURN_IF_ERROR(fileio::WriteFileAtomic(dir + "/" + name, bytes,
                                            options));
    chain.files.push_back(
        SnapshotChainFile{name, version, bytes.size(), records->size()});
    next.chains.push_back(std::move(chain));
    ++stats.segment_files;
    if (!whole) ++stats.delta_files;
    stats.bytes_written += bytes.size();
  }
  const std::string manifest = EncodeSnapshotManifest(next);
  // The commit point: once this rename lands, version `version` is live.
  RETURN_IF_ERROR(fileio::WriteFileAtomic(
      dir + "/" + SnapshotManifestName(version), manifest, options));
  stats.bytes_written += manifest.size();
  stats.gc_removed =
      CollectGarbage(dir, next, previous.has_value() ? &*previous : nullptr);
  return stats;
}

Result<BsiStore> SnapshotReader::Recover(const std::string& dir,
                                         RecoveryReport* report) {
  obs::ScopedSpan span("snapshot_recover");
  static obs::Counter& recoveries = obs::GetCounter("snapshot.recoveries");
  recoveries.Add();
  RecoveryReport local;
  RecoveryReport* const rep = report != nullptr ? report : &local;
  *rep = RecoveryReport{};

  Result<std::vector<std::string>> names = fileio::ListDir(dir);
  RETURN_IF_ERROR(names.status());
  std::vector<uint64_t> versions;
  for (const std::string& name : names.value()) {
    uint64_t v = 0;
    if (ParseManifestName(name, &v)) versions.push_back(v);
  }
  if (versions.empty()) {
    return Status::NotFound("snapshot: no manifest in " + dir);
  }
  std::sort(versions.rbegin(), versions.rend());

  SnapshotManifest manifest;
  bool have_manifest = false;
  for (uint64_t v : versions) {
    Result<SnapshotManifest> m = ReadManifest(dir, v);
    if (m.ok()) {
      manifest = std::move(m).value();
      have_manifest = true;
      break;
    }
    // A torn commit of a newer version: fall back past it, but keep the
    // classified reason.
    ++rep->manifests_skipped;
    rep->errors.push_back(m.status().message());
  }
  if (!have_manifest) {
    return Status::Corruption(
        "snapshot: no valid manifest in " + dir + " (" +
        std::to_string(versions.size()) + " candidates, all corrupt)");
  }
  rep->manifest_version = manifest.version;

  BsiStore store;
  for (const SnapshotChain& chain : manifest.chains) {
    const Status status =
        chain.error.empty()
            ? LoadChain(dir, chain, &store, rep)
            : Status::Corruption(SnapshotManifestName(manifest.version) +
                                 ": segment " +
                                 std::to_string(chain.segment) + ": " +
                                 chain.error);
    if (!status.ok()) {
      rep->lost_segments.push_back(chain.segment);
      rep->errors.push_back(status.message());
      continue;
    }
    rep->segments_recovered.push_back(chain.segment);
  }
  std::sort(rep->lost_segments.begin(), rep->lost_segments.end());
  std::sort(rep->segments_recovered.begin(), rep->segments_recovered.end());
  static obs::Counter& blobs_recovered =
      obs::GetCounter("snapshot.blobs_recovered");
  static obs::Counter& bytes_recovered =
      obs::GetCounter("snapshot.bytes_recovered");
  static obs::Counter& lost = obs::GetCounter("snapshot.lost_segments");
  static obs::Counter& skipped =
      obs::GetCounter("snapshot.manifests_skipped");
  blobs_recovered.Add(rep->blobs_recovered);
  bytes_recovered.Add(rep->bytes_recovered);
  lost.Add(rep->lost_segments.size());
  skipped.Add(static_cast<uint64_t>(rep->manifests_skipped));
  span.AddAttr("blobs_recovered", rep->blobs_recovered);
  span.AddAttr("lost_segments", rep->lost_segments.size());
  return store;
}

Result<BsiStore> BsiStore::Recover(const std::string& dir,
                                   RecoveryReport* report) {
  return SnapshotReader::Recover(dir, report);
}

}  // namespace expbsi
