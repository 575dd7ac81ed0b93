//===- support/Format.cpp -------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"
#include <charconv>
#include <cstdio>

using namespace dmb;

std::string dmb::formatv(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Size = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  if (Size <= 0)
    return std::string();
  std::string Out(static_cast<size_t>(Size), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  return Out;
}

std::string dmb::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Out = formatv(Fmt, Args);
  va_end(Args);
  return Out;
}

std::string dmb::join(const std::vector<std::string> &Parts,
                      const char *Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::vector<std::string> dmb::split(const std::string &Text, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string::npos) {
      Parts.push_back(Text.substr(Start));
      return Parts;
    }
    Parts.push_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

bool dmb::startsWith(const std::string &Text, const std::string &Prefix) {
  return Text.size() >= Prefix.size() &&
         Text.compare(0, Prefix.size(), Prefix) == 0;
}

bool dmb::parseUnsigned(const std::string &Text, uint64_t &Out) {
  uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Ptr != End)
    return false;
  Out = V;
  return true;
}
