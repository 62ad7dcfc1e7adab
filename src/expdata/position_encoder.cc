#include "expdata/position_encoder.h"

#include <cstring>

#include "common/byte_io.h"
#include "common/check.h"

namespace expbsi {

uint32_t PositionEncoder::Encode(UnitId id) {
  auto [it, inserted] =
      forward_.try_emplace(id, static_cast<uint32_t>(reverse_.size()));
  if (inserted) reverse_.push_back(id);
  return it->second;
}

std::optional<uint32_t> PositionEncoder::Lookup(UnitId id) const {
  auto it = forward_.find(id);
  if (it == forward_.end()) return std::nullopt;
  return it->second;
}

UnitId PositionEncoder::Decode(uint32_t pos) const {
  CHECK_LT(pos, reverse_.size());
  return reverse_[pos];
}

void PositionEncoder::PreassignRanked(const std::vector<UnitId>& ids_by_rank) {
  CHECK_EQ(reverse_.size(), 0u);
  forward_.reserve(ids_by_rank.size());
  reverse_.reserve(ids_by_rank.size());
  for (UnitId id : ids_by_rank) Encode(id);
  CHECK_EQ(reverse_.size(), ids_by_rank.size());  // ranked ids must be unique
}

void PositionEncoder::Serialize(std::string* out) const {
  PutU32(out, size());
  out->append(reinterpret_cast<const char*>(reverse_.data()),
              reverse_.size() * sizeof(UnitId));
}

Result<PositionEncoder> PositionEncoder::Deserialize(std::string_view bytes) {
  ByteReader in(bytes);
  uint32_t count = 0;
  if (!in.ReadU32(&count)) {
    return Status::Corruption("position_encoder: truncated");
  }
  std::string_view ids;
  if (!in.ReadView(count * sizeof(UnitId), &ids)) {
    return Status::Corruption("position_encoder: count exceeds payload");
  }
  if (!in.empty()) {
    return Status::Corruption("position_encoder: trailing bytes");
  }
  PositionEncoder out;
  out.reverse_.resize(count);
  if (count > 0) std::memcpy(out.reverse_.data(), ids.data(), ids.size());
  out.forward_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!out.forward_.try_emplace(out.reverse_[i], i).second) {
      return Status::Corruption("position_encoder: duplicate unit id");
    }
  }
  return out;
}

}  // namespace expbsi
