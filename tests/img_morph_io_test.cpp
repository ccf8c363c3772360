// Morphology behaviour + Netpbm I/O round-trips and failure injection.

#include <gtest/gtest.h>

#include <cstdio>
#include <utility>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "img/io.h"
#include "img/morphology.h"
#include "img/ops.h"
#include "support/img_oracles.h"
#include "util/rng.h"

namespace pi = polarice::img;
namespace fs = std::filesystem;

namespace {
pi::ImageU8 spot_image() {
  pi::ImageU8 im(9, 9, 1, 0);
  im.at(4, 4) = 255;
  return im;
}

fs::path temp_file(const char* name) {
  return fs::temp_directory_path() / name;
}
}  // namespace

TEST(Morphology, ErodeRemovesIsolatedSpot) {
  const auto out = pi::erode(spot_image(), 3);
  for (const auto v : out) EXPECT_EQ(v, 0);
}

TEST(Morphology, DilateGrowsSpotToKernelSize) {
  const auto out = pi::dilate(spot_image(), 3);
  int lit = 0;
  for (const auto v : out) lit += v == 255;
  EXPECT_EQ(lit, 9);  // 3x3 block
  EXPECT_EQ(out.at(3, 3), 255);
  EXPECT_EQ(out.at(5, 5), 255);
  EXPECT_EQ(out.at(2, 4), 0);
}

TEST(Morphology, OpenRemovesSpeckleClosesKeepsIt) {
  const auto opened = pi::morph_open(spot_image(), 3);
  for (const auto v : opened) EXPECT_EQ(v, 0);
  // A 3x3 solid block survives opening.
  pi::ImageU8 block(9, 9, 1, 0);
  for (int y = 3; y <= 5; ++y) {
    for (int x = 3; x <= 5; ++x) block.at(x, y) = 255;
  }
  const auto kept = pi::morph_open(block, 3);
  EXPECT_EQ(kept.at(4, 4), 255);
}

// The van Herk/Gil-Werman production path must be bit-identical to the
// seed's O(K) window scan on arbitrary content, for every kernel size
// including kernels larger than the image.
TEST(Morphology, VanHerkMatchesReferenceScan) {
  polarice::util::Rng rng(2024);
  // 200x97 .. 96x1 straddle the K=97 block boundaries of the row-wise
  // vertical pass (heights of one, two and three-plus blocks, and 1).
  for (const auto& [w, h] :
       {std::pair{31, 17}, std::pair{64, 64}, std::pair{5, 9},
        std::pair{1, 13}, std::pair{200, 97}, std::pair{64, 194},
        std::pair{3, 300}, std::pair{96, 1}}) {
    pi::ImageU8 im(w, h, 1);
    for (auto& px : im) px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    for (const int k : {1, 3, 7, 15, 97}) {
      const auto fast_erode = pi::erode(im, k);
      const auto ref_erode = pi::erode_ref(im, k);
      ASSERT_EQ(fast_erode, ref_erode) << w << "x" << h << " k=" << k;
      const auto fast_dilate = pi::dilate(im, k);
      const auto ref_dilate = pi::dilate_ref(im, k);
      ASSERT_EQ(fast_dilate, ref_dilate) << w << "x" << h << " k=" << k;
    }
  }
}

// The fused envelope pair must be bit-identical to the two separate
// open/close calls across sizes and kernels (including the cloud filter's
// K=97 production shape).
TEST(Morphology, FusedEnvelopePairMatchesSeparateOpenClose) {
  polarice::util::Rng rng(4077);
  for (const auto& [w, h] :
       {std::pair{31, 17}, std::pair{64, 64}, std::pair{5, 9},
        std::pair{1, 13}, std::pair{128, 96}, std::pair{200, 97},
        std::pair{64, 194}, std::pair{3, 300}, std::pair{96, 1}}) {
    pi::ImageU8 im(w, h, 1);
    for (auto& px : im) px = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    for (const int k : {1, 3, 7, 15, 97}) {
      const auto env = pi::morph_envelopes(im, k);
      ASSERT_EQ(env.open, pi::morph_open(im, k)) << w << "x" << h << " k=" << k;
      ASSERT_EQ(env.close, pi::morph_close(im, k))
          << w << "x" << h << " k=" << k;
      // Both sides above share the row-wise passes; pin them to the scan.
      ASSERT_EQ(env.open, pi::dilate_ref(pi::erode_ref(im, k), k))
          << w << "x" << h << " k=" << k;
      ASSERT_EQ(env.close, pi::erode_ref(pi::dilate_ref(im, k), k))
          << w << "x" << h << " k=" << k;
    }
  }
}

TEST(Morphology, FusedEnvelopePairRejectsBadInputs) {
  const auto im = spot_image();
  EXPECT_THROW(pi::morph_envelopes(im, 2), std::invalid_argument);
  EXPECT_THROW(pi::morph_envelopes(im, 0), std::invalid_argument);
  pi::ImageU8 rgb(4, 4, 3, 0);
  EXPECT_THROW(pi::morph_envelopes(rgb, 3), std::invalid_argument);
}

TEST(Morphology, VanHerkRejectsBadKernels) {
  const auto im = spot_image();
  EXPECT_THROW(pi::erode(im, 2), std::invalid_argument);
  EXPECT_THROW(pi::dilate(im, 0), std::invalid_argument);
  EXPECT_THROW(pi::erode_ref(im, 4), std::invalid_argument);
}

TEST(Morphology, CloseFillsHole) {
  pi::ImageU8 im(9, 9, 1, 255);
  im.at(4, 4) = 0;  // pinhole
  const auto closed = pi::morph_close(im, 3);
  EXPECT_EQ(closed.at(4, 4), 255);
}

TEST(Morphology, DualityErodeDilate) {
  polarice::util::Rng rng(17);
  pi::ImageU8 im(24, 18, 1);
  for (auto& v : im) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  // erode(not x) == not(dilate x)
  EXPECT_EQ(pi::erode(pi::bitwise_not(im), 5),
            pi::bitwise_not(pi::dilate(im, 5)));
}

TEST(Morphology, Ksize1IsIdentity) {
  polarice::util::Rng rng(18);
  pi::ImageU8 im(12, 12, 1);
  for (auto& v : im) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  EXPECT_EQ(pi::erode(im, 1), im);
  EXPECT_EQ(pi::dilate(im, 1), im);
}

TEST(Morphology, OpeningIsIdempotent) {
  polarice::util::Rng rng(19);
  pi::ImageU8 im(20, 20, 1);
  for (auto& v : im) v = rng.bernoulli(0.4) ? 255 : 0;
  const auto once = pi::morph_open(im, 3);
  const auto twice = pi::morph_open(once, 3);
  EXPECT_EQ(once, twice);
}

TEST(Morphology, RejectsBadInputs) {
  pi::ImageU8 rgb(4, 4, 3);
  EXPECT_THROW(pi::erode(rgb, 3), std::invalid_argument);
  pi::ImageU8 gray(4, 4, 1);
  EXPECT_THROW(pi::dilate(gray, 4), std::invalid_argument);
}

TEST(NetpbmIo, PpmRoundTrip) {
  polarice::util::Rng rng(20);
  pi::ImageU8 im(31, 17, 3);
  for (auto& v : im) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const auto path = temp_file("polarice_roundtrip.ppm");
  pi::write_ppm(path.string(), im);
  const auto back = pi::read_ppm(path.string());
  EXPECT_EQ(back, im);
  fs::remove(path);
}

TEST(NetpbmIo, PgmRoundTrip) {
  polarice::util::Rng rng(21);
  pi::ImageU8 im(13, 29, 1);
  for (auto& v : im) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const auto path = temp_file("polarice_roundtrip.pgm");
  pi::write_pgm(path.string(), im);
  const auto back = pi::read_pgm(path.string());
  EXPECT_EQ(back, im);
  fs::remove(path);
}

TEST(NetpbmIo, WriteRejectsWrongChannelCount) {
  pi::ImageU8 gray(4, 4, 1);
  EXPECT_THROW(pi::write_ppm("/tmp/x.ppm", gray), std::invalid_argument);
  pi::ImageU8 rgb(4, 4, 3);
  EXPECT_THROW(pi::write_pgm("/tmp/x.pgm", rgb), std::invalid_argument);
}

TEST(NetpbmIo, ReadRejectsMissingFile) {
  EXPECT_THROW(pi::read_ppm("/nonexistent/path/img.ppm"), std::runtime_error);
}

// The declared size is checked against the bytes left in the file before
// anything is allocated, so a header claiming 2e9 x 2e9 or 40000 x 40000
// pixels (~4.8 GB) over an empty pixel run throws std::runtime_error, not
// std::length_error or an OOM kill.
TEST(NetpbmIo, ReadRejectsTruncatedPixelData) {
  const auto path = temp_file("polarice_truncated.ppm");
  for (const char* file : {"P6\n100 100\n255\nshort",  // far fewer than
                                                         // 100*100*3 bytes
                           "P6\n2000000000 2000000000\n255\n",
                           "P6\n40000 40000\n255\n"}) {
    {
      std::ofstream out(path, std::ios::binary);
      out << file;
    }
    EXPECT_THROW(pi::read_ppm(path.string()), std::runtime_error) << file;
  }
  fs::remove(path);
}

TEST(NetpbmIo, ReadRejectsBadMagic) {
  const auto path = temp_file("polarice_badmagic.ppm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P5\n2 2\n255\n";
    out.write("\0\0\0\0", 4);
  }
  EXPECT_THROW(pi::read_ppm(path.string()), std::runtime_error);
  fs::remove(path);
}

TEST(NetpbmIo, ReadHandlesComments) {
  const auto path = temp_file("polarice_comment.pgm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P5\n# a comment line\n2 1\n255\n";
    out.write("\x07\x09", 2);
  }
  const auto im = pi::read_pgm(path.string());
  EXPECT_EQ(im.at(0, 0), 7);
  EXPECT_EQ(im.at(1, 0), 9);
  fs::remove(path);
}

TEST(NetpbmIo, ReadRejectsBadMaxval) {
  const auto path = temp_file("polarice_maxval.pgm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P5\n2 1\n65535\n";
    out.write("\0\0\0\0", 4);
  }
  EXPECT_THROW(pi::read_pgm(path.string()), std::runtime_error);
  fs::remove(path);
}

// Deterministic fuzz over a real PPM and PGM: every single-bit flip and
// every truncated prefix must either decode to a well-formed image of the
// format's channel count or throw std::runtime_error — never another
// exception type, a huge allocation, or an out-of-bounds read.
namespace {
void fuzz_netpbm(const std::string& pristine, const fs::path& path,
                 pi::ImageU8 (*read)(const std::string&), int channels) {
  const auto check = [&](const std::string& bytes, const char* what,
                         std::size_t at) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      const auto im = read(path.string());
      EXPECT_EQ(im.channels(), channels) << what << at;
      EXPECT_GT(im.width(), 0) << what << at;
      EXPECT_GT(im.height(), 0) << what << at;
      EXPECT_EQ(im.size(), static_cast<std::size_t>(im.width()) *
                               static_cast<std::size_t>(im.height()) *
                               static_cast<std::size_t>(channels))
          << what << at;
      EXPECT_LE(im.size(), bytes.size()) << what << at;
    } catch (const std::runtime_error&) {
      // The expected outcome for a corrupted header or pixel run.
    }
  };
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutant = pristine;
      mutant[i] = static_cast<char>(mutant[i] ^ (1 << bit));
      check(mutant, "flip at ", i);
    }
  }
  for (std::size_t n = 0; n < pristine.size(); ++n) {
    check(pristine.substr(0, n), "truncated to ", n);
  }
  fs::remove(path);
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}
}  // namespace

TEST(NetpbmIo, ReadFuzzYieldsValidImageOrRuntimeError) {
  polarice::util::Rng rng(22);
  pi::ImageU8 rgb(5, 4, 3);
  for (auto& v : rgb) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  pi::ImageU8 gray(7, 3, 1);
  for (auto& v : gray) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

  const auto ppm = temp_file("polarice_fuzz.ppm");
  pi::write_ppm(ppm.string(), rgb);
  ASSERT_EQ(pi::read_ppm(ppm.string()), rgb);
  fuzz_netpbm(file_bytes(ppm), ppm, &pi::read_ppm, 3);

  const auto pgm = temp_file("polarice_fuzz.pgm");
  pi::write_pgm(pgm.string(), gray);
  ASSERT_EQ(pi::read_pgm(pgm.string()), gray);
  fuzz_netpbm(file_bytes(pgm), pgm, &pi::read_pgm, 1);
}
