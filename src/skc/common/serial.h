// The one byte codec of the wire and the disk.
//
// Every shipped or persisted format — wire frames, builder blobs, engine
// checkpoints, tenant spills — is written with Writer and read with Reader:
// little-endian PODs with explicit widths, vectors and strings as a u64
// element count followed by the elements.  Both run over flat buffers.  A
// Reader knows how many bytes are left, so a count or size that announces
// more than remains is refused BEFORE anything is allocated: a truncated or
// bit-flipped length fails at once instead of overreading or asking for a
// multi-gigabyte buffer.  Files are read whole (read_file), so their real
// size bounds the buffer.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace skc::serial {

class Writer {
 public:
  template <typename T>
  void put(const T& value) {
    put_array(&value, 1);
  }

  /// `n` elements, no count prefix.
  template <typename T>
  void put_array(const T* data, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > 0) buf_.append(reinterpret_cast<const char*>(data), n * sizeof(T));
  }

  template <typename T>
  void put_vector(const std::vector<T>& v) {
    put<std::uint64_t>(v.size());
    put_array(v.data(), v.size());
  }

  void put_string(std::string_view s) {
    put<std::uint64_t>(s.size());
    buf_.append(s);
  }

  void put_bool(bool b) { put<std::uint8_t>(b ? 1 : 0); }

  /// Overwrites sizeof(T) bytes already written at `at`: fills in a size or
  /// checksum placeholder once what it covers has been written.
  template <typename T>
  void put_at(std::size_t at, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(buf_.data() + at, &value, sizeof(T));
  }

  std::size_t size() const { return buf_.size(); }
  std::string_view view() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : p_(bytes.data()), left_(bytes.size()) {}

  template <typename T>
  bool get(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (left_ < sizeof(T)) return false;
    std::memcpy(&value, p_, sizeof(T));
    skip(sizeof(T));
    return true;
  }

  /// `count` elements with no count prefix, into `v` (resized to count).
  /// Refuses a count past the bytes left before resizing.
  template <typename T>
  bool get_array(std::uint64_t count, std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > left_ / sizeof(T)) return false;
    v.resize(static_cast<std::size_t>(count));
    if (count > 0) std::memcpy(v.data(), p_, v.size() * sizeof(T));
    skip(v.size() * sizeof(T));
    return true;
  }

  template <typename T>
  bool get_vector(std::vector<T>& v) {
    std::uint64_t count = 0;
    return get(count) && get_array(count, v);
  }

  /// The next `size` bytes, uncopied (valid while the input is).
  bool get_view(std::uint64_t size, std::string_view& out) {
    if (size > left_) return false;
    out = std::string_view(p_, static_cast<std::size_t>(size));
    skip(out.size());
    return true;
  }

  bool get_string(std::string& s) {
    std::uint64_t size = 0;
    std::string_view view;
    if (!get(size) || !get_view(size, view)) return false;
    s.assign(view);
    return true;
  }

  bool get_bool(bool& b) {
    std::uint8_t byte = 0;
    if (!get(byte) || byte > 1) return false;
    b = byte != 0;
    return true;
  }

  /// The bytes not read yet, uncopied.
  std::string_view rest() const { return std::string_view(p_, left_); }
  std::size_t left() const { return left_; }
  /// Strictness: a well-formed body is consumed exactly.
  bool done() const { return left_ == 0; }

 private:
  void skip(std::size_t n) {
    p_ += n;
    left_ -= n;
  }

  const char* p_;
  std::size_t left_;
};

/// Reads the whole regular file at `path` into `out`, sized by the file
/// itself.  False when it is not a regular file or cannot be read.
bool read_file(const std::string& path, std::string& out);
/// Writes `bytes` to `path` (truncating); false on any I/O failure.
bool write_file(const std::string& path, std::string_view bytes);

}  // namespace skc::serial
