#include "serialize/binary_format.h"

#include <cstring>
#include <fstream>

#include "util/logging.h"

namespace hotspot::serialize {

namespace {

/// The header's artifact-kind word. A ForecastBundle is the only artifact
/// file; the word stays in the header and is checked on read, so a file
/// of a retired kind (1-6: the single-model formats) fails cleanly
/// instead of having its payload misread as a bundle.
constexpr uint32_t kBundleArtifactKind = 7;

/// Lazily built CRC-64/XZ table (ECMA-182 polynomial, reflected).
const uint64_t* Crc64Table() {
  static const uint64_t* table = [] {
    static uint64_t entries[256];
    constexpr uint64_t kPoly = 0xC96C5795D7870F42ull;
    for (uint64_t i = 0; i < 256; ++i) {
      uint64_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      entries[i] = crc;
    }
    return entries;
  }();
  return table;
}

}  // namespace

uint64_t Crc64(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  const uint64_t* table = Crc64Table();
  uint64_t crc = ~0ull;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

void ByteWriter::WriteU32(uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void ByteWriter::WriteU64(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void ByteWriter::WriteF32(float value) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU32(bits);
}

void ByteWriter::WriteF64(double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteString(const std::string& value) {
  WriteU32(static_cast<uint32_t>(value.size()));
  bytes_.insert(bytes_.end(), value.begin(), value.end());
}

void ByteWriter::WriteF32Vector(std::span<const float> values) {
  WriteU64(values.size());
  for (float v : values) WriteF32(v);
}

void ByteWriter::WriteF64Vector(const std::vector<double>& values) {
  WriteU64(values.size());
  for (double v : values) WriteF64(v);
}

bool ByteReader::Consume(size_t count) {
  if (!ok_) return false;
  if (count > size_ - pos_) {
    Fail("payload ends mid-field");
    return false;
  }
  return true;
}

void ByteReader::Fail(const std::string& what) {
  if (!ok_) return;  // keep the first failure reason
  ok_ = false;
  error_ = what;
  pos_ = size_;
}

uint8_t ByteReader::ReadU8() {
  if (!Consume(1)) return 0;
  return data_[pos_++];
}

uint32_t ByteReader::ReadU32() {
  if (!Consume(4)) return 0;
  uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<uint32_t>(data_[pos_++]) << shift;
  }
  return value;
}

uint64_t ByteReader::ReadU64() {
  if (!Consume(8)) return 0;
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<uint64_t>(data_[pos_++]) << shift;
  }
  return value;
}

float ByteReader::ReadF32() {
  uint32_t bits = ReadU32();
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

double ByteReader::ReadF64() {
  uint64_t bits = ReadU64();
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string ByteReader::ReadString() {
  uint32_t length = ReadU32();
  if (!Consume(length)) return std::string();
  std::string value(reinterpret_cast<const char*>(data_ + pos_), length);
  pos_ += length;
  return value;
}

std::vector<float> ByteReader::ReadF32Vector() {
  uint64_t count = ReadU64();
  // Element-count sanity gate before any allocation: a corrupted length
  // must not turn into a multi-gigabyte resize.
  if (!ok_ || count > remaining() / 4) {
    Fail("vector length exceeds payload");
    return {};
  }
  std::vector<float> values(static_cast<size_t>(count));
  for (float& v : values) v = ReadF32();
  return values;
}

std::vector<double> ByteReader::ReadF64Vector() {
  uint64_t count = ReadU64();
  if (!ok_ || count > remaining() / 8) {
    Fail("vector length exceeds payload");
    return {};
  }
  std::vector<double> values(static_cast<size_t>(count));
  for (double& v : values) v = ReadF64();
  return values;
}

Status WriteArtifactFile(const std::string& path,
                         const std::vector<uint8_t>& payload) {
  ByteWriter header;
  for (char c : kMagic) header.WriteU8(static_cast<uint8_t>(c));
  header.WriteU32(kFormatVersion);
  header.WriteU32(kBundleArtifactKind);
  header.WriteU64(payload.size());
  header.WriteU64(Crc64(payload.data(), payload.size()));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Error("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(header.bytes().data()),
            static_cast<std::streamsize>(header.bytes().size()));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  out.flush();
  if (!out) return Status::Error("write failed for " + path);
  return Status::Ok();
}

Status ReadArtifactFile(const std::string& path,
                        std::vector<uint8_t>* payload) {
  HOTSPOT_CHECK(payload != nullptr);
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Error("cannot open " + path);
  std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::Error("read failed for " + path);
  }

  constexpr size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;
  if (file.size() < kHeaderSize) {
    return Status::Error(path + ": truncated header (" +
                         std::to_string(file.size()) + " bytes, need " +
                         std::to_string(kHeaderSize) + ")");
  }
  ByteReader reader(file.data(), file.size());
  char magic[8];
  for (char& c : magic) c = static_cast<char>(reader.ReadU8());
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Error(path + ": bad magic (not a hotspot artifact file)");
  }
  uint32_t version = reader.ReadU32();
  if (version > kFormatVersion) {
    return Status::Error(
        path + ": format version " + std::to_string(version) +
        " is newer than this binary supports (" +
        std::to_string(kFormatVersion) +
        "); rebuild, or bump kFormatVersion alongside the layout change");
  }
  if (version < kOldestFormatVersion) {
    return Status::Error(path + ": format version " +
                         std::to_string(version) +
                         " is no longer supported (oldest readable: " +
                         std::to_string(kOldestFormatVersion) + ")");
  }
  uint32_t kind = reader.ReadU32();
  if (kind != kBundleArtifactKind) {
    return Status::Error(path + ": artifact kind " + std::to_string(kind) +
                         " where forecast_bundle (" +
                         std::to_string(kBundleArtifactKind) +
                         ") was expected");
  }
  uint64_t payload_size = reader.ReadU64();
  uint64_t stored_crc = reader.ReadU64();
  if (payload_size != file.size() - kHeaderSize) {
    return Status::Error(
        path + ": payload size mismatch (header declares " +
        std::to_string(payload_size) + " bytes, file carries " +
        std::to_string(file.size() - kHeaderSize) +
        ") — truncated or trailing garbage");
  }
  uint64_t actual_crc = Crc64(file.data() + kHeaderSize, payload_size);
  if (actual_crc != stored_crc) {
    return Status::Error(path + ": payload checksum mismatch — corrupted");
  }
  payload->assign(file.begin() + static_cast<std::ptrdiff_t>(kHeaderSize),
                  file.end());
  return Status::Ok();
}

}  // namespace hotspot::serialize
