#pragma once
// Scalar oracles for the img/ kernels: the plain per-pixel formulations the
// optimized library code is bit-compared against. They live in the
// polarice_test_support library, which only tests/ and bench/ link; none of
// them ships in the polarice library.

#include "img/image.h"

namespace polarice::img {

/// O(K)-per-pixel window scan for erode/dilate (odd ksize, single channel).
/// Bit-identical to img::erode/img::dilate.
ImageU8 erode_ref(const ImageU8& src, int ksize);
ImageU8 dilate_ref(const ImageU8& src, int ksize);

/// Per-tap border-clamped separable convolution: every tap clamps both
/// coordinates through Image::at_clamped. Bit-identical to
/// img::gaussian_blur/img::box_filter.
ImageU8 gaussian_blur_ref(const ImageU8& src, int ksize, double sigma = 0.0);
ImageF32 gaussian_blur_ref(const ImageF32& src, int ksize,
                           double sigma = 0.0);
ImageU8 box_filter_ref(const ImageU8& src, int ksize);

}  // namespace polarice::img
