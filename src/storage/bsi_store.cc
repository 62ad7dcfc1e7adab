#include "storage/bsi_store.h"

#include <cstring>

#include "common/fault_injector.h"
#include "common/hash.h"
#include "obs/metrics.h"

namespace expbsi {

uint64_t BlobFingerprint(std::string_view bytes) {
  // Chained Mix64 over 8-byte words plus a zero-padded tail; seeding with
  // the length separates blobs that differ only by trailing zero bytes.
  uint64_t h = Mix64(bytes.size() + 0x9e3779b97f4a7c15ull);
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    h = Mix64(h ^ word);
  }
  if (i < bytes.size()) {
    uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    h = Mix64(h ^ tail);
  }
  return h;
}

size_t BsiStoreKeyHash::operator()(const BsiStoreKey& k) const {
  uint64_t h = Mix64(k.id);
  h = Mix64(h ^ (static_cast<uint64_t>(k.segment) << 40) ^
            (static_cast<uint64_t>(k.kind) << 34) ^ k.date);
  return static_cast<size_t>(h);
}

void BsiStore::Put(const BsiStoreKey& key, std::string bytes) {
  static obs::Counter& puts = obs::GetCounter("store.puts");
  static obs::Counter& put_bytes = obs::GetCounter("store.put_bytes");
  puts.Add();
  put_bytes.Add(bytes.size());
  const uint64_t fingerprint = BlobFingerprint(bytes);
  auto it = blobs_.find(key);
  if (it != blobs_.end()) {
    total_bytes_ -= it->second.bytes.size();
    total_bytes_ += bytes.size();
    it->second.bytes = std::move(bytes);
    it->second.fingerprint = fingerprint;
    return;
  }
  total_bytes_ += bytes.size();
  blobs_.emplace(key, Entry{std::move(bytes), fingerprint});
}

void BsiStore::PutRecovered(const BsiStoreKey& key, std::string bytes,
                            uint64_t fingerprint) {
  auto it = blobs_.find(key);
  if (it != blobs_.end()) {
    total_bytes_ -= it->second.bytes.size();
    total_bytes_ += bytes.size();
    it->second = Entry{std::move(bytes), fingerprint, /*recovered=*/true};
    return;
  }
  total_bytes_ += bytes.size();
  blobs_.emplace(key, Entry{std::move(bytes), fingerprint,
                            /*recovered=*/true});
}

bool BsiStore::WasRecovered(const BsiStoreKey& key) const {
  auto it = blobs_.find(key);
  return it != blobs_.end() && it->second.recovered;
}

bool BsiStore::Contains(const BsiStoreKey& key) const {
  return blobs_.find(key) != blobs_.end();
}

Result<const std::string*> BsiStore::Get(const BsiStoreKey& key) const {
  static obs::Counter& gets = obs::GetCounter("store.gets");
  gets.Add();
  if (FaultInjector* fi = FaultInjector::Get(); fi != nullptr) {
    if (fi->Evaluate(fault_sites::kWarehouseGet).fail) {
      return Status::Unavailable("bsi store: injected warehouse failure");
    }
  }
  auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    return Status::NotFound("bsi store: no blob for key");
  }
  return &it->second.bytes;
}

Result<uint64_t> BsiStore::Fingerprint(const BsiStoreKey& key) const {
  auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    return Status::NotFound("bsi store: no blob for key");
  }
  return it->second.fingerprint;
}

}  // namespace expbsi
