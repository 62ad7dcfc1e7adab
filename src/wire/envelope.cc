#include "wire/envelope.h"

#include "common/byte_io.h"
#include "common/crc32c.h"

namespace expbsi {
namespace wire {

namespace {
// Bytes of the header covered by the header CRC (everything before it).
constexpr size_t kHeaderCrcOffset = kEnvelopeHeaderBytes - 4;
}  // namespace

void EncodeEnvelope(const Envelope& envelope, std::string* out) {
  const size_t header_start = out->size();
  PutU32(out, kEnvelopeMagic);
  PutU8(out, kWireFormatVersion);
  PutU8(out, static_cast<uint8_t>(envelope.type));
  PutU16(out, envelope.flags);
  PutU64(out, envelope.request_id);
  PutU32(out, static_cast<uint32_t>(envelope.payload.size()));
  PutU32(out, Crc32c(out->data() + header_start, kHeaderCrcOffset));
  out->append(envelope.payload);
  PutU32(out, Crc32c(envelope.payload.data(), envelope.payload.size()));
}

Result<size_t> FrameSizeFromHeader(std::string_view header) {
  if (header.size() != kEnvelopeHeaderBytes) {
    return Status::Corruption("envelope: short header");
  }
  const char* p = header.data();
  const uint32_t stored_crc = ReadU32(p + kHeaderCrcOffset);
  if (stored_crc != Crc32c(p, kHeaderCrcOffset)) {
    return Status::Corruption("envelope: header crc mismatch");
  }
  if (ReadU32(p) != kEnvelopeMagic) {
    return Status::Corruption("envelope: bad magic");
  }
  if (ReadU8(p + 4) != kWireFormatVersion) {
    return Status::Corruption("envelope: unsupported version");
  }
  if (ReadU8(p + 5) > kMaxMsgType) {
    return Status::Corruption("envelope: unknown message type");
  }
  const uint32_t payload_len = ReadU32(p + 16);
  if (payload_len > kMaxEnvelopePayloadBytes) {
    return Status::Corruption("envelope: payload length over cap");
  }
  return kEnvelopeHeaderBytes + static_cast<size_t>(payload_len) + 4;
}

Result<Envelope> DecodeEnvelope(std::string_view frame) {
  if (frame.size() < kEnvelopeHeaderBytes + 4) {
    return Status::Corruption("envelope: frame shorter than header");
  }
  auto size = FrameSizeFromHeader(frame.substr(0, kEnvelopeHeaderBytes));
  RETURN_IF_ERROR(size.status());
  if (frame.size() != size.value()) {
    return Status::Corruption(frame.size() < size.value()
                                  ? "envelope: truncated payload"
                                  : "envelope: trailing bytes after frame");
  }
  const char* p = frame.data();
  const uint32_t payload_len = ReadU32(p + 16);
  const char* payload = p + kEnvelopeHeaderBytes;
  const uint32_t stored_payload_crc = ReadU32(payload + payload_len);
  if (stored_payload_crc != Crc32c(payload, payload_len)) {
    return Status::Corruption("envelope: payload crc mismatch");
  }
  Envelope env;
  env.type = static_cast<MsgType>(ReadU8(p + 5));
  env.flags = ReadU16(p + 6);
  env.request_id = ReadU64(p + 8);
  env.payload.assign(payload, payload_len);
  return env;
}

void EncodeError(const WireError& error, std::string* out) {
  PutU8(out, static_cast<uint8_t>(error.code));
  PutString(out, std::string_view(error.message)
                     .substr(0, kMaxWireStringBytes));
}

Result<WireError> DecodeError(std::string_view payload) {
  ByteReader r(payload);
  uint8_t code = 0;
  WireError err;
  if (!r.ReadU8(&code) ||
      !r.ReadString(&err.message, kMaxWireStringBytes) || !r.empty()) {
    return Status::Corruption("wire error: malformed payload");
  }
  if (code == 0 || code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("wire error: unknown status code");
  }
  err.code = static_cast<StatusCode>(code);
  return err;
}

}  // namespace wire
}  // namespace expbsi
