#include "src/common/serde.hpp"

#include <bit>
#include <cstring>

namespace eesmr {

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::f64(double v) {
  static_assert(sizeof(double) == 8);
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  u64(bits);
}

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::bytes(BytesView v) {
  u32(static_cast<std::uint32_t>(v.size()));
  raw(v);
}

void Writer::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::raw(BytesView v) { buf_.insert(buf_.end(), v.begin(), v.end()); }

void Reader::need(std::size_t n) const {
  if (remaining() < n) {
    throw SerdeError("truncated input: need " + std::to_string(n) +
                     " bytes, have " + std::to_string(remaining()));
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

bool Reader::boolean() {
  std::uint8_t v = u8();
  if (v > 1) throw SerdeError("boolean out of range");
  return v == 1;
}

Bytes Reader::bytes() {
  std::uint32_t n = u32();
  return raw(n);
}

std::string Reader::str() {
  std::uint32_t n = u32();
  need(n);
  std::string s(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

Bytes Reader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

BytesView Reader::raw_view(std::size_t n) {
  need(n);
  BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void Reader::expect_done() const {
  if (!done()) {
    throw SerdeError("trailing bytes: " + std::to_string(remaining()));
  }
}

}  // namespace eesmr
