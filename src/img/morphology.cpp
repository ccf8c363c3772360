#include "img/morphology.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace polarice::img {

namespace {
enum class Op { kMin, kMax };

// Operators are template parameters so every scan compiles to a branch-free
// min/max loop.
template <Op op>
inline std::uint8_t combine(std::uint8_t a, std::uint8_t b) noexcept {
  return op == Op::kMin ? std::min(a, b) : std::max(a, b);
}

/// The element that leaves `combine` unchanged: 255 for min, 0 for max.
/// Padding a line with it is equivalent to the clamped/truncated border of
/// the reference window scan.
template <Op op>
constexpr std::uint8_t kIdentity = op == Op::kMin ? 255 : 0;

/// van Herk / Gil-Werman 1-D running min/max over one staged line padded by
/// `radius` identity elements on each side: per-block prefix (R) and suffix
/// (L) scans with block size K = 2*radius+1. The window [i, i+K-1] in
/// padded coordinates spans at most one block boundary, so
/// out[i] = combine(L[i], R[i+K-1]) — three passes over the line,
/// independent of K.
template <Op op>
void scan_line(const std::uint8_t* line, std::uint8_t* prefix,
               std::uint8_t* suffix, std::uint8_t* out, int inner, int k,
               int padded) {
  for (int b0 = 0; b0 < padded; b0 += k) {
    const int b1 = std::min(b0 + k, padded);
    prefix[b0] = line[b0];
    for (int i = b0 + 1; i < b1; ++i) {
      prefix[i] = combine<op>(prefix[i - 1], line[i]);
    }
    suffix[b1 - 1] = line[b1 - 1];
    for (int i = b1 - 2; i >= b0; --i) {
      suffix[i] = combine<op>(suffix[i + 1], line[i]);
    }
  }
  for (int i = 0; i < inner; ++i) {
    out[i] = combine<op>(suffix[i], prefix[i + k - 1]);
  }
}

/// Horizontal pass: each row staged into a padded line and scanned.
template <Op op>
void pass_h(const ImageU8& src, ImageU8& out, int radius) {
  const int w = src.width(), h = src.height();
  const int k = 2 * radius + 1;
  const int padded = w + 2 * radius;
  std::vector<std::uint8_t> storage(static_cast<std::size_t>(padded) * 3);
  std::uint8_t* line = storage.data();
  std::uint8_t* prefix = line + padded;
  std::uint8_t* suffix = prefix + padded;
  std::fill(line, line + radius, kIdentity<op>);
  std::fill(line + padded - radius, line + padded, kIdentity<op>);
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* row = src.data() + static_cast<std::size_t>(y) * w;
    std::copy(row, row + w, line + radius);
    scan_line<op>(line, prefix, suffix,
                  out.data() + static_cast<std::size_t>(y) * w, w, k, padded);
  }
}

/// Vertical pass: the same recurrences down the columns, evaluated a whole
/// row at a time so every step is a min/max over contiguous x. Padded row p
/// is source row p - radius, or an identity row in the border. Every block
/// that holds an output row's window start is full (b0 < h implies
/// b0 + K - 1 < h + 2*radius), so a block's K suffix rows plus one running
/// prefix row of the next block produce its outputs: row b0 is the whole
/// block (suffix row 0), row b0 + t combines suffix row t with the prefix
/// of the next block's first t rows. Scratch is K + 2 rows, not planes.
template <Op op>
void pass_v(const ImageU8& src, ImageU8& out, int radius) {
  const int w = src.width(), h = src.height();
  const int k = 2 * radius + 1;
  const std::size_t row = static_cast<std::size_t>(w);
  std::vector<std::uint8_t> storage(row * static_cast<std::size_t>(k + 2));
  std::uint8_t* identity = storage.data();
  std::uint8_t* prefix = identity + row;
  std::uint8_t* suffix = prefix + row;  // K rows: padded rows b0..b0+K-1
  std::fill(identity, identity + row, kIdentity<op>);
  const auto line = [&](int p) -> const std::uint8_t* {
    return p < radius || p >= radius + h
               ? identity
               : src.data() + static_cast<std::size_t>(p - radius) * row;
  };
  const auto combine_rows = [w](std::uint8_t* dst, const std::uint8_t* a,
                                const std::uint8_t* b) {
    for (int x = 0; x < w; ++x) dst[x] = combine<op>(a[x], b[x]);
  };
  for (int b0 = 0; b0 < h; b0 += k) {
    std::uint8_t* s_last = suffix + static_cast<std::size_t>(k - 1) * row;
    std::copy(line(b0 + k - 1), line(b0 + k - 1) + row, s_last);
    for (int t = k - 2; t >= 0; --t) {
      combine_rows(suffix + static_cast<std::size_t>(t) * row,
                   suffix + static_cast<std::size_t>(t + 1) * row,
                   line(b0 + t));
    }
    std::copy(identity, identity + row, prefix);
    const int rows = std::min(k, h - b0);
    for (int t = 0; t < rows; ++t) {
      if (t > 0) combine_rows(prefix, prefix, line(b0 + k + t - 1));
      combine_rows(out.data() + static_cast<std::size_t>(b0 + t) * row,
                   suffix + static_cast<std::size_t>(t) * row, prefix);
    }
  }
}

void check_morph_input(const ImageU8& src, int ksize) {
  if (ksize < 1 || ksize % 2 == 0) {
    throw std::invalid_argument("morphology: ksize must be odd >= 1");
  }
  if (src.channels() != 1) {
    throw std::invalid_argument("morphology: expected single channel");
  }
}

template <Op op>
ImageU8 morph(const ImageU8& src, int ksize) {
  check_morph_input(src, ksize);
  const int radius = ksize / 2;
  ImageU8 stage(src.width(), src.height(), 1);
  pass_h<op>(src, stage, radius);
  ImageU8 out(src.width(), src.height(), 1);
  pass_v<op>(stage, out, radius);
  return out;
}
}  // namespace

ImageU8 erode(const ImageU8& src, int ksize) {
  return morph<Op::kMin>(src, ksize);
}

ImageU8 dilate(const ImageU8& src, int ksize) {
  return morph<Op::kMax>(src, ksize);
}

ImageU8 morph_open(const ImageU8& src, int ksize) {
  return dilate(erode(src, ksize), ksize);
}

ImageU8 morph_close(const ImageU8& src, int ksize) {
  return erode(dilate(src, ksize), ksize);
}

MorphEnvelopes morph_envelopes(const ImageU8& src, int ksize) {
  check_morph_input(src, ksize);
  const int radius = ksize / 2;
  const int w = src.width(), h = src.height();
  ImageU8 a_stage(w, h, 1), b_stage(w, h, 1);
  ImageU8 a_full(w, h, 1), b_full(w, h, 1);
  MorphEnvelopes env{ImageU8(w, h, 1), ImageU8(w, h, 1)};

  // erode(src) and dilate(src).
  pass_h<Op::kMin>(src, a_stage, radius);
  pass_h<Op::kMax>(src, b_stage, radius);
  pass_v<Op::kMin>(a_stage, a_full, radius);
  pass_v<Op::kMax>(b_stage, b_full, radius);
  // dilate(eroded) -> open and erode(dilated) -> close.
  pass_h<Op::kMax>(a_full, a_stage, radius);
  pass_h<Op::kMin>(b_full, b_stage, radius);
  pass_v<Op::kMax>(a_stage, env.open, radius);
  pass_v<Op::kMin>(b_stage, env.close, radius);
  return env;
}

}  // namespace polarice::img
