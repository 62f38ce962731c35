// Deterministic byte-oriented codec used for every wire message.
//
// All integers are little-endian fixed width. Variable-size payloads are
// length-prefixed with u32. The encoding is deterministic: encoding the
// same logical value always yields the same bytes, so hashes and
// signatures over encoded messages are stable.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/common/bytes.hpp"

namespace eesmr {

/// Thrown by Reader on truncated or malformed input.
class SerdeError : public std::runtime_error {
 public:
  explicit SerdeError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only encoder.
class Writer {
 public:
  Writer() = default;
  /// Reserve `capacity` bytes up front: an encoder that knows its exact
  /// size allocates once.
  explicit Writer(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  /// Length-prefixed byte string.
  void bytes(BytesView v);
  /// Length-prefixed UTF-8 string.
  void str(const std::string& s);
  /// Raw bytes without a length prefix (caller knows the framing).
  void raw(BytesView v);

  /// Drop the contents but keep the allocation, so a long-lived Writer
  /// amortizes buffer growth across encodes on the hot path.
  void clear() { buf_.clear(); }

  [[nodiscard]] const Bytes& buffer() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Bounds-checked decoder over a view. Does not own the data.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  Bytes bytes();
  std::string str();
  /// Read exactly n raw bytes.
  Bytes raw(std::size_t n);

  /// Zero-copy variant of raw(): a subspan into the underlying buffer
  /// instead of an owned copy. Valid only while the backing storage
  /// outlives the view — deliver-path code that keeps the frame alive
  /// (SharedBytes) or consumes the view before returning should prefer it.
  BytesView raw_view(std::size_t n);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }
  /// Throws SerdeError unless the whole input has been consumed.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  BytesView data_;
  std::size_t pos_ = 0;
};

/// T::decode(bytes), with std::nullopt for malformed bytes instead of
/// SerdeError.
template <class T>
std::optional<T> try_decode(BytesView bytes) {
  try {
    return T::decode(bytes);
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

}  // namespace eesmr
