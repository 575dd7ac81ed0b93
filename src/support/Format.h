//===- support/Format.h - printf-style string formatting --------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal formatting helpers. The benchmark writes result files and chart
/// data as text; these helpers keep that code terse without pulling in
/// <iostream> (forbidden in library code by the coding standard).
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SUPPORT_FORMAT_H
#define DMETABENCH_SUPPORT_FORMAT_H

#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

namespace dmb {

/// Returns a std::string produced from a printf-style format.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// vprintf flavour of format().
std::string formatv(const char *Fmt, va_list Args);

/// Joins \p Parts with \p Sep between elements.
std::string join(const std::vector<std::string> &Parts, const char *Sep);

/// Splits \p Text on \p Sep; empty components are kept.
std::vector<std::string> split(const std::string &Text, char Sep);

/// Returns true when \p Text starts with \p Prefix.
bool startsWith(const std::string &Text, const std::string &Prefix);

/// Parses \p Text as a base-10 unsigned integer into \p Out. Returns false,
/// leaving \p Out untouched, unless the whole string is digits and the
/// value fits in 64 bits (no sign, no whitespace, no trailing garbage).
bool parseUnsigned(const std::string &Text, uint64_t &Out);

} // namespace dmb

#endif // DMETABENCH_SUPPORT_FORMAT_H
