#ifndef HOTSPOT_SERIALIZE_BINARY_FORMAT_H_
#define HOTSPOT_SERIALIZE_BINARY_FORMAT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace hotspot::serialize {

/// Result of a save/load operation: ok() tells success; on failure `error`
/// carries a one-line reason (file, what). No exceptions cross this API,
/// and a failed load never leaves partially-filled output objects.
struct Status {
  bool ok = true;
  std::string error;

  static Status Ok() { return {}; }
  static Status Error(std::string message) {
    return {false, std::move(message)};
  }
};

/// Current version of the container format. Bump whenever any payload
/// layout changes; the loader rejects files with a newer version than it
/// was built for (forward compatibility is not attempted), which is what
/// the golden-file test pins. It also rejects files older than
/// kOldestFormatVersion: v1, the pre-section bundle layout, is not read.
inline constexpr uint32_t kFormatVersion = 2;
inline constexpr uint32_t kOldestFormatVersion = 2;

/// The 8-byte magic that opens every artifact file.
inline constexpr char kMagic[8] = {'H', 'O', 'T', 'S', 'P', 'O', 'T', 'B'};

/// CRC-64 (ECMA-182 polynomial, as used by xz) over `size` bytes.
uint64_t Crc64(const void* data, size_t size);

/// Append-only little-endian byte buffer. All multi-byte values are
/// written least-significant byte first regardless of host endianness;
/// floats and doubles are written as their IEEE-754 bit patterns, so NaN
/// payloads and signed zeros survive a round trip bit-exactly.
class ByteWriter {
 public:
  void WriteU8(uint8_t value) { bytes_.push_back(value); }
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI32(int32_t value) { WriteU32(static_cast<uint32_t>(value)); }
  void WriteI64(int64_t value) { WriteU64(static_cast<uint64_t>(value)); }
  void WriteF32(float value);
  void WriteF64(double value);
  void WriteBool(bool value) { WriteU8(value ? 1 : 0); }
  /// Length-prefixed (u32) raw string bytes.
  void WriteString(const std::string& value);
  /// Appends `size` pre-encoded bytes verbatim (section framing).
  void WriteRaw(const uint8_t* data, size_t size) {
    bytes_.insert(bytes_.end(), data, data + size);
  }

  void WriteF32Vector(std::span<const float> values);
  void WriteF64Vector(const std::vector<double>& values);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over a byte span (not owned). Every
/// read past the end trips the failure flag and returns a zero value
/// instead of touching out-of-range memory; callers check ok() once at the
/// end (or wherever they need a validity gate) rather than after every
/// read. Once failed, all subsequent reads are no-ops.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  int32_t ReadI32() { return static_cast<int32_t>(ReadU32()); }
  int64_t ReadI64() { return static_cast<int64_t>(ReadU64()); }
  float ReadF32();
  double ReadF64();
  bool ReadBool() { return ReadU8() != 0; }
  std::string ReadString();

  std::vector<float> ReadF32Vector();
  std::vector<double> ReadF64Vector();

  /// Marks the stream as failed (used by callers for semantic validation
  /// failures, e.g. an out-of-range node index).
  void Fail(const std::string& what);

  bool ok() const { return ok_; }
  /// First failure reason; empty while ok().
  const std::string& error() const { return error_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  /// Advances past `count` bytes (trips the failure flag when fewer
  /// remain).
  void Skip(size_t count) {
    if (Consume(count)) pos_ += count;
  }

 private:
  /// True when `count` more bytes may be consumed; trips Fail otherwise.
  bool Consume(size_t count);

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

/// Frames `payload` with the versioned header and CRC-64 trailer and
/// writes it to `path` atomically enough for our purposes (single write).
///
/// File layout (all little-endian):
///   [0..7]    magic "HOTSPOTB"
///   [8..11]   u32 format version (kFormatVersion)
///   [12..15]  u32 artifact kind (7: ForecastBundle, the only kind)
///   [16..23]  u64 payload size in bytes
///   [24..31]  u64 CRC-64 of the payload bytes
///   [32..]    payload
Status WriteArtifactFile(const std::string& path,
                         const std::vector<uint8_t>& payload);

/// Reads and validates an artifact file: magic, version (files newer than
/// kFormatVersion are rejected with a "bump" hint, files older than
/// kOldestFormatVersion as no longer supported), kind, declared payload
/// size against the actual file size (truncation / trailing garbage), and
/// the CRC (any flipped payload byte). On success `payload` holds the
/// verified payload bytes.
Status ReadArtifactFile(const std::string& path,
                        std::vector<uint8_t>* payload);

}  // namespace hotspot::serialize

#endif  // HOTSPOT_SERIALIZE_BINARY_FORMAT_H_
