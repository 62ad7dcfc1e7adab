#ifndef EXPBSI_COMMON_BYTE_IO_H_
#define EXPBSI_COMMON_BYTE_IO_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace expbsi {

// The one little-endian byte codec. Every persisted or shipped format goes
// through it: the Roaring container / bitmap and BSI blobs, the
// experiment-data blobs and the position encoder (warehouse, snapshot
// segment files and wire payloads), the snapshot chain manifest and ingest
// meta blob (DESIGN.md §6), the WAL segment header and records, and the
// wire protocol (§9). Every value has exactly one byte representation on
// any host, so "decode then re-encode" is bit-identity -- the round-trip
// contract the decode fuzzer asserts and the golden-bytes test pins.
//
// Bulk payloads of fixed-width integers -- container arrays and bitmap
// words, position-encoder unit ids -- are copied with one memcpy / append
// instead of value by value, which writes exactly these bytes only on a
// little-endian host. This assert is where that decision is made.
static_assert(std::endian::native == std::endian::little,
              "bulk blob payloads are copied as little-endian memory");

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// Doubles cross the wire as their IEEE-754 bit pattern, so a scorecard
// value computed on a node is BIT-identical after the round trip (the
// cross-process differential sweep compares with ==, not a tolerance).
inline void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

inline uint8_t ReadU8(const char* p) { return static_cast<uint8_t>(p[0]); }

inline uint16_t ReadU16(const char* p) {
  return static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                               (static_cast<uint16_t>(
                                    static_cast<uint8_t>(p[1]))
                                << 8));
}

inline uint32_t ReadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

inline uint64_t ReadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

inline double ReadF64(const char* p) {
  const uint64_t bits = ReadU64(p);
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Bounds-checked cursor over an untrusted payload. Every Read* returns
// false once the remaining bytes run out; no length or count read from the
// buffer is ever trusted before it is checked against `remaining()`, so no
// allocation is ever sized from a hostile header.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool empty() const { return p_ == end_; }

  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = expbsi::ReadU8(p_);
    p_ += 1;
    return true;
  }
  bool ReadU16(uint16_t* v) {
    if (remaining() < 2) return false;
    *v = expbsi::ReadU16(p_);
    p_ += 2;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = expbsi::ReadU32(p_);
    p_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
    *v = expbsi::ReadU64(p_);
    p_ += 8;
    return true;
  }
  bool ReadF64(double* v) {
    if (remaining() < 8) return false;
    *v = expbsi::ReadF64(p_);
    p_ += 8;
    return true;
  }
  // Length-prefixed string: [len u32][bytes]. `max_len` caps the length
  // BEFORE the allocation; the remaining-bytes check rejects a length that
  // overruns the payload.
  bool ReadString(std::string* out, uint32_t max_len) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (len > max_len || remaining() < len) return false;
    out->assign(p_, len);
    p_ += len;
    return true;
  }
  // The next `n` bytes as a view into the payload (no copy); false when
  // fewer remain.
  bool ReadView(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = std::string_view(p_, n);
    p_ += n;
    return true;
  }
  // Count prefix for an array of `elem_bytes`-sized elements: rejects any
  // count whose payload could not fit in the remaining bytes, so the
  // caller's reserve/resize is always bounded by the frame size.
  bool ReadCount(uint32_t* count, size_t elem_bytes) {
    if (!ReadU32(count)) return false;
    return elem_bytes == 0 ||
           static_cast<uint64_t>(*count) * elem_bytes <= remaining();
  }

 private:
  const char* p_;
  const char* end_;
};

inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

}  // namespace expbsi

#endif  // EXPBSI_COMMON_BYTE_IO_H_
