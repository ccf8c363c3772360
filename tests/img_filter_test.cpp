// Smoothing filter tests: box, Gaussian, median.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>

#include "img/filter.h"
#include "support/img_oracles.h"
#include "util/rng.h"

namespace pi = polarice::img;

TEST(GaussianKernel, NormalizedAndSymmetric) {
  for (const int k : {1, 3, 5, 11, 31}) {
    const auto kernel = pi::gaussian_kernel_1d(k, 0.0);
    ASSERT_EQ(kernel.size(), static_cast<std::size_t>(k));
    const float sum = std::accumulate(kernel.begin(), kernel.end(), 0.0f);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
    for (int i = 0; i < k / 2; ++i) {
      EXPECT_FLOAT_EQ(kernel[i], kernel[k - 1 - i]);
    }
  }
}

TEST(GaussianKernel, PeakAtCenter) {
  const auto kernel = pi::gaussian_kernel_1d(7, 1.5);
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    EXPECT_LE(kernel[i], kernel[3]);
  }
}

TEST(GaussianKernel, RejectsEvenOrNonPositive) {
  EXPECT_THROW(pi::gaussian_kernel_1d(4, 1.0), std::invalid_argument);
  EXPECT_THROW(pi::gaussian_kernel_1d(0, 1.0), std::invalid_argument);
  EXPECT_THROW(pi::gaussian_kernel_1d(-3, 1.0), std::invalid_argument);
}

TEST(GaussianBlur, PreservesConstantImage) {
  pi::ImageU8 im(16, 16, 3, 137);
  const auto out = pi::gaussian_blur(im, 5);
  for (const auto v : out) EXPECT_EQ(v, 137);
}

TEST(GaussianBlur, SmoothsAnImpulse) {
  pi::ImageU8 im(15, 15, 1, 0);
  im.at(7, 7) = 255;
  const auto out = pi::gaussian_blur(im, 5, 1.0);
  EXPECT_LT(out.at(7, 7), 255);            // peak reduced
  EXPECT_GT(out.at(7, 7), out.at(6, 7));   // still the maximum
  EXPECT_GT(out.at(6, 7), out.at(5, 7));   // monotone falloff
  EXPECT_EQ(out.at(0, 0), 0);              // energy stays local
}

TEST(GaussianBlur, FloatVariantPreservesMeanApproximately) {
  polarice::util::Rng rng(3);
  pi::ImageF32 im(32, 32, 1);
  double sum = 0.0;
  for (auto& v : im) {
    v = rng.uniform_f();
    sum += v;
  }
  const auto out = pi::gaussian_blur(im, 7, 2.0);
  double out_sum = 0.0;
  for (const auto v : out) out_sum += v;
  EXPECT_NEAR(out_sum / im.size(), sum / im.size(), 0.02);
}

namespace {
// Raw-byte equality: floats compare bit for bit (so -0 vs +0 or a NaN
// payload would count as a difference), never within a tolerance.
template <typename T>
int raw_compare(const pi::Image<T>& a, const pi::Image<T>& b) {
  if (!a.same_shape(b)) return -1;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(T));
}

template <typename T>
pi::Image<T> random_image(int w, int h, int nc, polarice::util::Rng& rng) {
  pi::Image<T> im(w, h, nc);
  for (auto& v : im) {
    if constexpr (std::is_same_v<T, float>) {
      v = static_cast<float>(rng.uniform(-8.0, 300.0));
    } else {
      v = static_cast<T>(rng.uniform_int(0, 255));
    }
  }
  return im;
}

template <typename T>
void expect_blur_matches_reference(int w, int h, int nc,
                                   polarice::util::Rng& rng) {
  const auto im = random_image<T>(w, h, nc, rng);
  for (const int k : {1, 3, 5, 11, 31, 81}) {
    for (const double sigma : {0.0, 0.37 * k + 0.5}) {
      const std::string where = std::to_string(w) + "x" + std::to_string(h) +
                                "x" + std::to_string(nc) + " k=" +
                                std::to_string(k) +
                                " sigma=" + std::to_string(sigma);
      ASSERT_EQ(raw_compare(pi::gaussian_blur(im, k, sigma),
                            pi::gaussian_blur_ref(im, k, sigma)),
                0)
          << where;
    }
  }
}
}  // namespace

// The vectorised separable passes must reproduce the per-tap clamped scan
// bit for bit: u8 and f32, 1 and 3 channels, kernels up to K=81 (wider than
// every side of 7x5), a width that is not a multiple of any vector width.
TEST(GaussianBlur, BitIdenticalToScalarReference) {
  polarice::util::Rng rng(1414);
  for (const auto& [w, h] :
       {std::pair{1, 1}, std::pair{1, 17}, std::pair{17, 1}, std::pair{7, 5},
        std::pair{130, 97}, std::pair{256, 256}}) {
    for (const int nc : {1, 3}) {
      expect_blur_matches_reference<std::uint8_t>(w, h, nc, rng);
      expect_blur_matches_reference<float>(w, h, nc, rng);
      const auto im = random_image<std::uint8_t>(w, h, nc, rng);
      for (const int k : {1, 3, 31}) {
        ASSERT_EQ(raw_compare(pi::box_filter(im, k), pi::box_filter_ref(im, k)),
                  0)
            << w << "x" << h << "x" << nc << " box k=" << k;
      }
    }
  }
}

// A sigma whose square underflows (0/0 at the centre tap) or a NaN sigma
// must still give a finite, normalized kernel: the u8 store assumes blur
// outputs stay in [0, 255].
TEST(GaussianKernel, DegenerateSigmaStaysFinite) {
  for (const double sigma :
       {1e-300, std::numeric_limits<double>::quiet_NaN()}) {
    const auto kernel = pi::gaussian_kernel_1d(5, sigma);
    for (const float v : kernel) EXPECT_TRUE(std::isfinite(v)) << sigma;
    EXPECT_NEAR(std::accumulate(kernel.begin(), kernel.end(), 0.0f), 1.0f,
                1e-5f);
  }
  polarice::util::Rng rng(5);
  const auto im = random_image<std::uint8_t>(9, 7, 3, rng);
  EXPECT_EQ(pi::gaussian_blur(im, 5, 1e-300), im);  // the identity kernel
}

TEST(BoxFilter, AveragesNeighbourhood) {
  pi::ImageU8 im(3, 3, 1, 0);
  im.at(1, 1) = 90;
  const auto out = pi::box_filter(im, 3);
  EXPECT_EQ(out.at(1, 1), 10);  // 90 / 9
}

TEST(BoxFilter, Ksize1IsIdentity) {
  polarice::util::Rng rng(4);
  pi::ImageU8 im(9, 7, 3);
  for (auto& v : im) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const auto out = pi::box_filter(im, 1);
  EXPECT_EQ(out, im);
}

TEST(MedianFilter, RemovesSaltAndPepperNoise) {
  pi::ImageU8 im(32, 32, 1, 100);
  polarice::util::Rng rng(8);
  for (int i = 0; i < 40; ++i) {
    const int x = static_cast<int>(rng.uniform_int(0, 31));
    const int y = static_cast<int>(rng.uniform_int(0, 31));
    im.at(x, y) = rng.bernoulli(0.5) ? 0 : 255;
  }
  const auto out = pi::median_filter(im, 3);
  int survivors = 0;
  for (const auto v : out) survivors += (v == 0 || v == 255);
  EXPECT_LT(survivors, 5);  // isolated specks are gone
}

TEST(MedianFilter, ConstantImageUnchanged) {
  pi::ImageU8 im(8, 8, 1, 42);
  EXPECT_EQ(pi::median_filter(im, 5), im);
}

TEST(MedianFilter, PreservesStepEdgeLocation) {
  pi::ImageU8 im(16, 4, 1);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 16; ++x) im.at(x, y) = x < 8 ? 10 : 240;
  }
  const auto out = pi::median_filter(im, 3);
  EXPECT_EQ(out.at(3, 1), 10);
  EXPECT_EQ(out.at(12, 1), 240);
}

TEST(MedianFilter, RejectsMultiChannelAndEvenKsize) {
  pi::ImageU8 rgb(4, 4, 3);
  EXPECT_THROW(pi::median_filter(rgb, 3), std::invalid_argument);
  pi::ImageU8 gray(4, 4, 1);
  EXPECT_THROW(pi::median_filter(gray, 2), std::invalid_argument);
}

// Property: median equals brute-force window sort for random images.
class MedianSweep : public ::testing::TestWithParam<int> {};

TEST_P(MedianSweep, MatchesBruteForce) {
  const int ksize = GetParam();
  polarice::util::Rng rng(1000 + ksize);
  pi::ImageU8 im(21, 13, 1);
  for (auto& v : im) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const auto fast = pi::median_filter(im, ksize);
  const int radius = ksize / 2;
  for (int y = 0; y < im.height(); ++y) {
    for (int x = 0; x < im.width(); ++x) {
      std::vector<std::uint8_t> window;
      for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
          window.push_back(im.at_clamped(x + dx, y + dy));
        }
      }
      std::nth_element(window.begin(), window.begin() + window.size() / 2,
                       window.end());
      ASSERT_EQ(fast.at(x, y), window[window.size() / 2])
          << "at (" << x << "," << y << ") ksize " << ksize;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ksizes, MedianSweep, ::testing::Values(1, 3, 5, 7));
