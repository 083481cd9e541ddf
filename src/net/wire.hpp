// Bounds-checked binary serialization for frame payloads.
//
// Big-endian, fixed-width integers; Reals travel as their IEEE-754 bit
// pattern in a u64 so values round-trip exactly (the loopback-equivalence
// test compares metrics byte for byte). Strings are u32 length + bytes.
//
// WireReader never throws on malformed input: every getter returns a
// zero value once the reader has failed, and decoders check ok() at the
// end. This keeps "peer sent garbage" on the error-status path rather than
// the exception path.
//
// Both classes also share one field-list surface, so a message layout is
// written once as a function template over the writer or the reader (see
// rpc/protocol.hpp):
//   io(a, b, ...)          each field at the width of its C++ type
//                          (WireScalar); a reader fills the fields
//   io.enumeration(e, max) an enum as u8; a reader fails on raw > max
//   io.list(items, fn)     u32 count, then fn(item) per element; a reader
//                          fails on a count above remaining() before it
//                          allocates (every element takes at least a byte)
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/common.hpp"

namespace cosched {

/// The field types a layout may name; each travels at its own width.
template <class T>
concept WireScalar =
    std::same_as<T, std::uint8_t> || std::same_as<T, std::uint16_t> ||
    std::same_as<T, std::uint32_t> || std::same_as<T, std::uint64_t> ||
    std::same_as<T, std::int32_t> || std::same_as<T, std::int64_t> ||
    std::same_as<T, Real> || std::same_as<T, bool> ||
    std::same_as<T, std::string>;

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_be(v, 2); }
  void u32(std::uint32_t v) { append_be(v, 4); }
  void u64(std::uint64_t v) { append_be(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void real(Real v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Appends pre-encoded bytes verbatim (no length prefix) — used to nest
  /// an already-encoded body inside an envelope.
  void bytes_raw(const std::vector<std::uint8_t>& b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

  // ---- field-list surface --------------------------------------------
  template <WireScalar... T>
  void operator()(const T&... fields) {
    (put(fields), ...);
  }
  template <class E>
  void enumeration(E value, E /*max*/) {
    u8(static_cast<std::uint8_t>(value));
  }
  template <class T, class Fn>
  void list(const std::vector<T>& items, Fn&& each) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const T& item : items) each(item);
  }

 private:
  template <WireScalar T>
  void put(const T& v) {
    if constexpr (std::same_as<T, bool>)
      boolean(v);
    else if constexpr (std::same_as<T, Real>)
      real(v);
    else if constexpr (std::same_as<T, std::string>)
      str(v);
    else
      append_be(static_cast<std::make_unsigned_t<T>>(v), sizeof(T));
  }
  void append_be(std::uint64_t v, int width) {
    for (int i = width - 1; i >= 0; --i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(read_be(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(read_be(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(read_be(4)); }
  std::uint64_t u64() { return read_be(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  Real real() { return std::bit_cast<Real>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    std::uint32_t n = u32();
    if (failed_ || n > size_ - pos_) {
      failed_ = true;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// All reads so far were in bounds *and* nothing is left unread.
  bool complete() const { return !failed_ && pos_ == size_; }
  bool ok() const { return !failed_; }
  std::size_t remaining() const { return size_ - pos_; }

  // ---- field-list surface (mirrors WireWriter's) -------------------------
  template <WireScalar... T>
  void operator()(T&... fields) {
    (get(fields), ...);
  }
  template <class E>
  void enumeration(E& value, E max) {
    std::uint8_t raw = u8();
    if (raw > static_cast<std::uint8_t>(max))
      failed_ = true;
    else
      value = static_cast<E>(raw);
  }
  template <class T, class Fn>
  void list(std::vector<T>& items, Fn&& each) {
    std::uint32_t n = u32();
    if (n > remaining()) failed_ = true;
    if (failed_) return;
    items.clear();
    items.reserve(n);
    for (std::uint32_t i = 0; i < n && !failed_; ++i)
      each(items.emplace_back());
  }

 private:
  template <WireScalar T>
  void get(T& v) {
    if constexpr (std::same_as<T, bool>)
      v = boolean();
    else if constexpr (std::same_as<T, Real>)
      v = real();
    else if constexpr (std::same_as<T, std::string>)
      v = str();
    else
      v = static_cast<T>(read_be(sizeof(T)));
  }
  std::uint64_t read_be(int width) {
    if (failed_ || static_cast<std::size_t>(width) > size_ - pos_) {
      failed_ = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) v = (v << 8) | data_[pos_++];
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace cosched
