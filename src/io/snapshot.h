// snapshot.h — versioned, checksummed binary serialization of engine and
// service state (DESIGN.md §9; docs/API.md "Snapshot format").
//
// The robustness layer needs to freeze a running algorithm mid-stream and
// bring it back bit-identically — the restore-then-continue trajectory must
// equal the uninterrupted one.  Text round-trips (io/instance_io.h) cannot
// promise that for doubles, so snapshots are binary: every double travels
// as its IEEE-754 bit pattern, every integer as explicit little-endian
// bytes, and the whole payload is guarded by an FNV-1a 64 checksum that is
// validated before a single field is parsed.
//
// Format (all integers little-endian):
//
//   'M' 'R' 'S' 'N'          magic
//   u32 container version    (kContainerVersion)
//   str kind                 producer-chosen stream kind, e.g. "service"
//   u32 version              producer-chosen stream version
//   u64 payload size
//   u64 payload FNV-1a 64
//   payload bytes
//
// Inside the payload, producers interleave 4-byte structure tags
// (SnapshotWriter::tag / SnapshotReader::expect_tag) so a reader that
// drifts out of sync fails on the next tag with a message naming both
// sides, instead of silently reinterpreting bytes.
//
// Corruption, truncation, a kind mismatch, or an unsupported version all
// throw InvalidArgument from the SnapshotReader constructor or the typed
// read that detects them; nothing is partially applied.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/check.h"

namespace minrej {

/// FNV-1a 64-bit hash of a byte span (the snapshot payload checksum).
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) noexcept;

/// Accumulates one snapshot payload and seals it with the header above.
class SnapshotWriter {
 public:
  /// `kind` names the stream (validated on read); `version` is the
  /// producer's format version for that kind.
  SnapshotWriter(std::string kind, std::uint32_t version);

  void u8(std::uint8_t v) { payload_.push_back(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern — the exact double comes back, NaNs included.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s);
  /// 4-byte structure tag; the reader resynchronization points.
  void tag(std::string_view four_cc);
  /// Length-prefixed raw byte block.
  void bytes(std::span<const std::uint8_t> b);
  /// How a snapshot embeds another sealed snapshot (the service stream
  /// nests one algorithm stream per shard).  Alias of bytes(), named for
  /// symmetry with SnapshotReader::blob.
  void blob(std::span<const std::uint8_t> b) { bytes(b); }

  /// Length-prefixed vector of an arithmetic element type.
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    u64(v.size());
    for (const T& x : v) scalar(x);
  }

  /// vector<bool> (bit-packed, so no span view exists): one byte per bit.
  void bit_vec(const std::vector<bool>& v);

  template <typename T>
  void scalar(T x) {
    if constexpr (std::is_same_v<T, bool>) {
      boolean(x);
    } else if constexpr (std::is_floating_point_v<T>) {
      f64(static_cast<double>(x));
    } else if constexpr (std::is_enum_v<T>) {
      u64(static_cast<std::uint64_t>(x));
    } else if constexpr (std::is_signed_v<T>) {
      i64(static_cast<std::int64_t>(x));
    } else {
      u64(static_cast<std::uint64_t>(x));
    }
  }

  /// Seals header + payload into the final byte stream.
  std::vector<std::uint8_t> finish() const;

  std::size_t payload_size() const noexcept { return payload_.size(); }

 private:
  std::string kind_;
  std::uint32_t version_;
  std::vector<std::uint8_t> payload_;
};

/// Parses a sealed snapshot.  The constructor validates magic, container
/// version, kind, payload size, and checksum up front.
class SnapshotReader {
 public:
  /// `expected_kind` must match the writer's kind exactly.
  SnapshotReader(std::span<const std::uint8_t> bytes,
                 std::string_view expected_kind);

  /// The producer's stream version (callers gate on it before parsing).
  std::uint32_t version() const noexcept { return version_; }

  std::uint8_t u8();
  bool boolean() { return u8() != 0; }
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str();
  /// Consumes 4 bytes and requires them to equal `four_cc`.
  void expect_tag(std::string_view four_cc);
  /// Reads a length-prefixed raw byte block written by SnapshotWriter::blob.
  std::vector<std::uint8_t> blob();
  /// Reads a u64 count of items that each take at least `min_item_bytes`
  /// of the payload.  A count larger than the bytes left fails here as
  /// InvalidArgument instead of driving a huge reserve.
  std::size_t count(std::size_t min_item_bytes);

  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    const std::size_t n = count(element_size<T>());
    std::vector<T> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(scalar<T>());
    return v;
  }

  std::vector<bool> bit_vec();

  template <typename T>
  T scalar() {
    if constexpr (std::is_same_v<T, bool>) {
      return boolean();
    } else if constexpr (std::is_floating_point_v<T>) {
      return static_cast<T>(f64());
    } else if constexpr (std::is_enum_v<T>) {
      return static_cast<T>(u64());
    } else if constexpr (std::is_signed_v<T>) {
      return static_cast<T>(i64());
    } else {
      return static_cast<T>(u64());
    }
  }

  /// Requires the payload to be fully consumed — a producer/consumer field
  /// mismatch that happens to stay tag-aligned still fails loudly here.
  void expect_end() const;

  std::size_t remaining() const noexcept { return payload_.size() - pos_; }

 private:
  template <typename T>
  static constexpr std::size_t element_size() {
    return (std::is_same_v<T, bool> ? 1 : 8);
  }
  /// Rejects length prefixes larger than the bytes actually present, so a
  /// corrupted count cannot drive a multi-gigabyte reserve.
  void guard_count(std::uint64_t n, std::size_t elem_size);
  std::span<const std::uint8_t> take(std::size_t n);

  std::span<const std::uint8_t> payload_;
  std::size_t pos_ = 0;
  std::uint32_t version_ = 0;
};

}  // namespace minrej
