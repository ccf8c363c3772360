#pragma once
// Grayscale morphology with rectangular structuring elements. Used for
// illumination estimation in the cloud/shadow filter and for the boundary
// jitter in the synthetic "manual" labeler.
//
// erode/dilate run the van Herk / Gil-Werman algorithm: two 1-D passes
// (rectangles are separable), each computing running min/max with ~3
// comparisons per pixel regardless of kernel size — the cloud filter's
// K=97 envelopes cost the same as K=3. The horizontal pass scans each row;
// the vertical pass runs the same block prefix/suffix recurrences a whole
// row at a time (min/max over contiguous x, scratch of K + 2 rows), never
// reading a column pixel by pixel. min/max are exact, so every path is
// bit-identical to the O(K)-per-pixel window scan erode_ref/dilate_ref,
// which lives in the test-support library (tests/support/img_oracles.h)
// and is bit-compared against these in tests and benches.

#include "img/image.h"

namespace polarice::img {

/// Minimum filter over an odd ksize x ksize rectangle (single channel).
ImageU8 erode(const ImageU8& src, int ksize);

/// Maximum filter over an odd ksize x ksize rectangle (single channel).
ImageU8 dilate(const ImageU8& src, int ksize);

/// Erosion then dilation (removes bright specks smaller than the kernel).
ImageU8 morph_open(const ImageU8& src, int ksize);

/// Dilation then erosion (fills dark specks smaller than the kernel).
ImageU8 morph_close(const ImageU8& src, int ksize);

/// The cloud filter's envelope pair: opening (dark envelope) and closing
/// (bright envelope) of the same source.
struct MorphEnvelopes {
  ImageU8 open;
  ImageU8 close;
};

/// Computes morph_open and morph_close together: the eight 1-D passes share
/// four staging planes allocated once up front. Bit-identical to
/// {morph_open(src, k), morph_close(src, k)}.
MorphEnvelopes morph_envelopes(const ImageU8& src, int ksize);

}  // namespace polarice::img
