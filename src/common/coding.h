// Fixed-width encodings for tuple, index-page and UDF-wire layouts.
//
// Latch contract: Decoder reads never fail loudly.  A short read latches
// the error, every later read yields 0 or an empty view, and the caller
// checks status() once, after its last read — so check status() before
// trusting any value read, and never let a decoded value size an
// allocation or index memory until it has been checked against
// remaining().
//
// Invariant (enforced by review + the ubsan preset): every multi-byte load
// or store in this file goes through std::memcpy, never a pointer cast, so
// the codec is alignment-safe on any buffer offset — tuple fields are
// packed back-to-back in slotted pages and land on odd addresses all the
// time.  Keep it that way when adding encodings.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace mural {

inline void PutU8(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}

inline void PutU16(std::string* dst, uint16_t v) {
  char buf[2];
  std::memcpy(buf, &v, 2);
  dst->append(buf, 2);
}

inline void PutU32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutU64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline void PutF64(std::string* dst, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutU32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

/// Sticky-error cursor over a byte string.  Every read is bounds-checked
/// and returns its value directly; the first read that would run past the
/// end latches the failure, after which the cursor no longer advances and
/// every later read returns 0 or an empty view.  A decode therefore runs
/// its reads unconditionally and consults status() once at the end —
/// callers must check ok()/status() before trusting any value read.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  bool ok() const { return failed_ == nullptr; }
  /// OK, or Corruption naming the first read that ran past the end.
  Status status() const;

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

  uint8_t U8() { return Fixed<uint8_t>("u8"); }
  uint16_t U16() { return Fixed<uint16_t>("u16"); }
  uint32_t U32() { return Fixed<uint32_t>("u32"); }
  uint64_t U64() { return Fixed<uint64_t>("u64"); }
  double F64() { return Fixed<double>("f64"); }

  /// A u32 length followed by that many bytes.  The view borrows the
  /// decoder's buffer and is valid only as long as that buffer is.
  std::string_view LengthPrefixed() {
    const uint32_t len = U32();
    const char* p = Take(len, "length-prefixed field");
    return p == nullptr ? std::string_view() : std::string_view(p, len);
  }

  /// Advances past `n` bytes without reading them.
  void Skip(size_t n) { Take(n, "skip"); }

 private:
  template <typename T>
  T Fixed(const char* what) {
    T v{};
    if (const char* p = Take(sizeof(T), what)) std::memcpy(&v, p, sizeof(T));
    return v;
  }

  /// Returns the next `n` bytes and steps past them, or nullptr when fewer
  /// remain.
  const char* Take(size_t n, const char* what) {
    if (n > remaining()) {
      Fail(what);
      return nullptr;
    }
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  /// Latches the first failure and truncates the buffer at the cursor, so
  /// remaining() is 0 and no later non-empty read can succeed or move the
  /// cursor.
  void Fail(const char* what) {
    if (failed_ == nullptr) failed_ = what;
    data_ = data_.substr(0, pos_);
  }

  std::string_view data_;
  size_t pos_ = 0;
  const char* failed_ = nullptr;  // name of the first short read
};

inline Status Decoder::status() const {
  if (ok()) return Status::OK();
  // The cursor stops at the failed read, so pos_ is where it started.
  return Status::Corruption("decode past end of buffer: " +
                            std::string(failed_) + " at offset " +
                            std::to_string(pos_));
}

}  // namespace mural
