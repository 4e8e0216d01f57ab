#include "io/snapshot.h"

namespace minrej {

namespace {

constexpr std::uint8_t kMagic[4] = {'M', 'R', 'S', 'N'};
constexpr std::uint32_t kContainerVersion = 1;

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  return h;
}

SnapshotWriter::SnapshotWriter(std::string kind, std::uint32_t version)
    : kind_(std::move(kind)), version_(version) {
  MINREJ_REQUIRE(!kind_.empty(), "snapshot kind must be non-empty");
}

void SnapshotWriter::u32(std::uint32_t v) { append_u32(payload_, v); }

void SnapshotWriter::u64(std::uint64_t v) { append_u64(payload_, v); }

void SnapshotWriter::str(std::string_view s) {
  u64(s.size());
  payload_.insert(payload_.end(), s.begin(), s.end());
}

void SnapshotWriter::tag(std::string_view four_cc) {
  MINREJ_REQUIRE(four_cc.size() == 4, "snapshot tags are exactly 4 bytes");
  payload_.insert(payload_.end(), four_cc.begin(), four_cc.end());
}

void SnapshotWriter::bytes(std::span<const std::uint8_t> b) {
  u64(b.size());
  payload_.insert(payload_.end(), b.begin(), b.end());
}

void SnapshotWriter::bit_vec(const std::vector<bool>& v) {
  u64(v.size());
  for (const bool b : v) boolean(b);
}

std::vector<std::uint8_t> SnapshotWriter::finish() const {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 4 + 8 + kind_.size() + 4 + 8 + 8 + payload_.size());
  // assign, not insert at end(): GCC 12 misreads a range insert into a
  // freshly reserved, still empty vector as a write past its end
  // (-Wstringop-overflow).  Within the reservation, so no reallocation.
  out.assign(std::begin(kMagic), std::end(kMagic));
  append_u32(out, kContainerVersion);
  append_u64(out, kind_.size());
  out.insert(out.end(), kind_.begin(), kind_.end());
  append_u32(out, version_);
  append_u64(out, payload_.size());
  append_u64(out, fnv1a64(payload_));
  out.insert(out.end(), payload_.begin(), payload_.end());
  return out;
}

SnapshotReader::SnapshotReader(std::span<const std::uint8_t> bytes,
                               std::string_view expected_kind) {
  // Parse the fixed header with a local cursor: payload_ is only bound
  // after every header check (including the checksum) has passed.
  std::size_t pos = 0;
  const auto need = [&](std::size_t n) {
    if (bytes.size() - pos < n) {
      throw InvalidArgument("snapshot truncated: header needs " +
                            std::to_string(n) + " bytes at offset " +
                            std::to_string(pos));
    }
  };
  need(4);
  if (!std::equal(std::begin(kMagic), std::end(kMagic), bytes.begin())) {
    throw InvalidArgument("not a minrej snapshot (bad magic)");
  }
  pos = 4;
  const auto read_u32 = [&] {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes[pos + i]) << (8 * i);
    }
    pos += 4;
    return v;
  };
  const auto read_u64 = [&] {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes[pos + i]) << (8 * i);
    }
    pos += 8;
    return v;
  };
  const std::uint32_t container = read_u32();
  if (container != kContainerVersion) {
    throw InvalidArgument("unsupported snapshot container version " +
                          std::to_string(container) + " (expected " +
                          std::to_string(kContainerVersion) + ")");
  }
  const std::uint64_t kind_len = read_u64();
  need(static_cast<std::size_t>(kind_len));
  const std::string kind(
      reinterpret_cast<const char*>(bytes.data() + pos),
      static_cast<std::size_t>(kind_len));
  pos += static_cast<std::size_t>(kind_len);
  if (kind != expected_kind) {
    throw InvalidArgument("snapshot kind mismatch: stream is '" + kind +
                          "', expected '" + std::string(expected_kind) + "'");
  }
  version_ = read_u32();
  const std::uint64_t payload_size = read_u64();
  const std::uint64_t checksum = read_u64();
  if (bytes.size() - pos != payload_size) {
    throw InvalidArgument(
        "snapshot payload size mismatch: header claims " +
        std::to_string(payload_size) + " bytes, stream carries " +
        std::to_string(bytes.size() - pos));
  }
  payload_ = bytes.subspan(pos);
  if (fnv1a64(payload_) != checksum) {
    throw InvalidArgument("snapshot checksum mismatch — corrupted stream");
  }
}

std::span<const std::uint8_t> SnapshotReader::take(std::size_t n) {
  if (remaining() < n) {
    throw InvalidArgument("snapshot truncated: read of " + std::to_string(n) +
                          " bytes at payload offset " + std::to_string(pos_) +
                          " with " + std::to_string(remaining()) + " left");
  }
  const auto s = payload_.subspan(pos_, n);
  pos_ += n;
  return s;
}

std::uint8_t SnapshotReader::u8() { return take(1)[0]; }

std::uint32_t SnapshotReader::u32() {
  const auto b = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t SnapshotReader::u64() {
  const auto b = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::string SnapshotReader::str() {
  const auto b = take(count(1));
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

std::vector<std::uint8_t> SnapshotReader::blob() {
  const auto b = take(count(1));
  return std::vector<std::uint8_t>(b.begin(), b.end());
}

std::size_t SnapshotReader::count(std::size_t min_item_bytes) {
  const std::uint64_t n = u64();
  guard_count(n, min_item_bytes);
  return static_cast<std::size_t>(n);
}

void SnapshotReader::expect_tag(std::string_view four_cc) {
  MINREJ_REQUIRE(four_cc.size() == 4, "snapshot tags are exactly 4 bytes");
  const auto b = take(4);
  if (!std::equal(four_cc.begin(), four_cc.end(), b.begin())) {
    throw InvalidArgument(
        "snapshot structure mismatch: expected tag '" +
        std::string(four_cc) + "', found '" +
        std::string(reinterpret_cast<const char*>(b.data()), 4) + "'");
  }
}

std::vector<bool> SnapshotReader::bit_vec() {
  const std::size_t n = count(1);
  std::vector<bool> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(boolean());
  return v;
}

void SnapshotReader::expect_end() const {
  if (remaining() != 0) {
    throw InvalidArgument("snapshot has " + std::to_string(remaining()) +
                          " unread trailing payload bytes");
  }
}

void SnapshotReader::guard_count(std::uint64_t n, std::size_t elem_size) {
  if (n > remaining() / elem_size) {
    throw InvalidArgument("snapshot length prefix " + std::to_string(n) +
                          " exceeds the remaining payload — corrupted count");
  }
}

}  // namespace minrej
