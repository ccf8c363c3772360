#pragma once
// Smoothing / noise filters (paper §III.A "noise filtering"): box, Gaussian
// (separable), and median. Borders replicate (cv::BORDER_REPLICATE).
//
// box_filter and gaussian_blur share one separable pass pair. Each pass
// keeps the kernel taps in the outer loop and a contiguous row of float
// accumulators in the inner one: the horizontal pass reads each source row
// once, staged as floats padded by `radius` replicated border pixels; the
// vertical pass clamps only the row index. Every output value starts at 0
// and adds k[i] * v for i = -r..r in that order, so results are
// bit-identical to the per-tap border-clamped scan for any channel count
// and for kernels wider than the image. That scan is kept as
// gaussian_blur_ref/box_filter_ref in the test-support library
// (tests/support/img_oracles.h), where tests bit-compare the two.

#include "img/image.h"

namespace polarice::img {

/// Box (mean) filter with an odd ksize x ksize window; any channel count.
ImageU8 box_filter(const ImageU8& src, int ksize);

/// Gaussian blur with an odd ksize x ksize kernel. sigma <= 0 derives the
/// OpenCV default sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8.
ImageU8 gaussian_blur(const ImageU8& src, int ksize, double sigma = 0.0);

/// Float variant used inside the cloud filter's illumination estimate.
ImageF32 gaussian_blur(const ImageF32& src, int ksize, double sigma = 0.0);

/// Median filter with an odd ksize x ksize window (single channel only);
/// histogram-based so it is O(1) per pixel update.
ImageU8 median_filter(const ImageU8& src, int ksize);

/// Builds a normalized 1-D Gaussian kernel of odd length `ksize`.
std::vector<float> gaussian_kernel_1d(int ksize, double sigma);

}  // namespace polarice::img
