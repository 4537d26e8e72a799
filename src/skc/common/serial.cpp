#include "skc/common/serial.h"

#include <filesystem>
#include <fstream>
#include <system_error>

namespace skc::serial {

bool read_file(const std::string& path, std::string& out) {
  // file_size fails on anything but a regular file; a directory opens as
  // a stream whose end reads as 2^63 - 1.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.resize(static_cast<std::size_t>(size));
  return static_cast<bool>(in.read(out.data(), static_cast<std::streamsize>(size)));
}

bool write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace skc::serial
