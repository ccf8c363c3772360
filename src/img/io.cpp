#include "img/io.h"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <stdexcept>

namespace polarice::img {

namespace {
void write_pnm(const std::string& path, const ImageU8& image,
               const char* magic, int channels) {
  if (image.channels() != channels) {
    throw std::invalid_argument(std::string("write ") + magic +
                                ": wrong channel count");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  out << magic << '\n'
      << image.width() << ' ' << image.height() << "\n255\n";
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  if (!out) throw std::runtime_error("short write: " + path);
}

// Skips whitespace and '#' comments, then reads one ASCII token.
std::string next_token(std::istream& in) {
  std::string token;
  for (;;) {
    const int c = in.get();
    if (c == EOF) break;
    if (c == '#') {
      std::string line;
      std::getline(in, line);
      continue;
    }
    if (std::isspace(c)) {
      if (!token.empty()) break;
      continue;
    }
    token.push_back(static_cast<char>(c));
  }
  return token;
}

ImageU8 read_pnm(const std::string& path, const char* magic, int channels) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  if (next_token(in) != magic) {
    throw std::runtime_error("bad magic in " + path);
  }
  int width = 0, height = 0, maxval = 0;
  try {
    width = std::stoi(next_token(in));
    height = std::stoi(next_token(in));
    maxval = std::stoi(next_token(in));
  } catch (const std::exception&) {
    throw std::runtime_error("bad header in " + path);
  }
  if (width <= 0 || height <= 0 || maxval != 255) {
    throw std::runtime_error("unsupported header in " + path);
  }
  // Check the declared size against the bytes actually left in the file
  // before allocating: a lying header must not drive the allocation.
  std::uint64_t need = 0;
  if (__builtin_mul_overflow(static_cast<std::uint64_t>(width),
                             static_cast<std::uint64_t>(height), &need) ||
      __builtin_mul_overflow(need, static_cast<std::uint64_t>(channels),
                             &need)) {
    throw std::runtime_error("unsupported header in " + path);
  }
  const std::streamoff here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(here);
  if (here < 0 || end < here ||
      need > static_cast<std::uint64_t>(end - here)) {
    throw std::runtime_error("truncated pixel data in " + path);
  }
  ImageU8 image(width, height, channels);
  in.read(reinterpret_cast<char*>(image.data()),
          static_cast<std::streamsize>(image.size()));
  if (in.gcount() != static_cast<std::streamsize>(image.size())) {
    throw std::runtime_error("truncated pixel data in " + path);
  }
  return image;
}
}  // namespace

void write_ppm(const std::string& path, const ImageU8& rgb) {
  write_pnm(path, rgb, "P6", 3);
}

void write_pgm(const std::string& path, const ImageU8& gray) {
  write_pnm(path, gray, "P5", 1);
}

ImageU8 read_ppm(const std::string& path) { return read_pnm(path, "P6", 3); }

ImageU8 read_pgm(const std::string& path) { return read_pnm(path, "P5", 1); }

}  // namespace polarice::img
