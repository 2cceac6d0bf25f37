// Command-line flag parsing shared by every binary that is not allowed a
// real flags library: the fig*/ablation_* experiments (bench_util.h), the
// google-benchmark micros (micro_util.h) and the canon_doctor tool.
//
// Flags are "--name=value" (a bare "--name" is the empty string, which
// flag_bool treats as true). A numeric or boolean flag whose value does
// not parse stops the program with exit code 2 and an error naming the
// flag and the value. reject_unknown_flags() does the same for an
// argument no accessor asked about (BenchRun::check_flags calls it).
#ifndef CANON_BENCH_FLAGS_H
#define CANON_BENCH_FLAGS_H

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace canon::bench {

/// Returns the value of "--name=value" from argv, or nullptr if absent.
/// A bare "--name" yields the empty string.
inline const char* flag_raw(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
    if (flag == argv[i]) return "";
  }
  return nullptr;
}

/// True iff "--name" or "--name=value" appears in argv at all. Lets a
/// binary keep an optional flag out of its recorded params (and so out of
/// the JSON report) unless the caller actually passed it.
inline bool flag_present(int argc, char** argv, const char* name) {
  return flag_raw(argc, argv, name) != nullptr;
}

/// Reports a numeric flag value that cannot be used and exits with code 2.
[[noreturn]] inline void reject_flag(const char* name, const char* value,
                                     const char* expected) {
  std::fprintf(stderr, "error: --%s=%s: expected %s\n", name, value,
               expected);
  std::exit(2);
}

/// Parses "--name=value" from argv as an unsigned decimal integer; returns
/// `fallback` if absent. Empty values, signs, trailing characters and
/// values past 2^64 - 1 exit with code 2 (see reject_flag).
inline std::uint64_t flag_u64(int argc, char** argv, const char* name,
                              std::uint64_t fallback) {
  const char* v = flag_raw(argc, argv, name);
  if (v == nullptr) return fallback;
  // strtoull would skip whitespace and wrap "-1" to 2^64 - 1.
  if (*v < '0' || *v > '9') reject_flag(name, v, "an unsigned integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (*end != '\0') reject_flag(name, v, "an unsigned integer");
  if (errno == ERANGE) reject_flag(name, v, "an integer below 2^64");
  return x;
}

/// flag_u64 for a value the program stores in an int (--threads,
/// --batch-width): a value above INT_MAX also exits with code 2 instead
/// of wrapping on the narrowing cast.
inline int flag_int(int argc, char** argv, const char* name, int fallback) {
  const std::uint64_t x =
      flag_u64(argc, argv, name, static_cast<std::uint64_t>(fallback));
  if (x > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    reject_flag(name, flag_raw(argc, argv, name),
                "an integer at most 2147483647");
  }
  return static_cast<int>(x);
}

/// Parses "--name=value" from argv as a finite number; returns `fallback`
/// if absent. Empty values, trailing characters and values that overflow a
/// double (or are inf/nan) exit with code 2.
inline double flag_double(int argc, char** argv, const char* name,
                          double fallback) {
  const char* v = flag_raw(argc, argv, name);
  if (v == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  const bool blank = std::isspace(static_cast<unsigned char>(*v)) != 0;
  if (end == v || *end != '\0' || blank) reject_flag(name, v, "a number");
  if (errno == ERANGE || !std::isfinite(x)) {
    reject_flag(name, v, "a finite number");
  }
  return x;
}

inline std::string flag_str(int argc, char** argv, const char* name,
                            const char* fallback) {
  const char* v = flag_raw(argc, argv, name);
  return v ? std::string(v) : std::string(fallback);
}

/// "--name" and "--name=true/1/yes/on" are true; "--name=false/0/no/off"
/// is false; absent is `fallback`. Any other value exits with code 2.
inline bool flag_bool(int argc, char** argv, const char* name, bool fallback) {
  const char* v = flag_raw(argc, argv, name);
  if (!v) return fallback;
  const std::string s(v);
  if (s.empty() || s == "true" || s == "1" || s == "yes" || s == "on") {
    return true;
  }
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  reject_flag(name, v, "true/false/1/0/yes/no/on/off");
}

/// Exits with code 2 when argv holds anything but "--name" or
/// "--name=value" for a name in `known`: a misspelled or retired flag
/// must not run silently with defaults. The error lists the valid flags.
inline void reject_unknown_flags(int argc, char** argv,
                                 std::vector<std::string> known) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    const std::string name =
        std::strncmp(arg, "--", 2) == 0
            ? std::string(arg + 2, eq ? eq : arg + std::strlen(arg))
            : std::string();
    if (!name.empty() &&
        std::find(known.begin(), known.end(), name) != known.end()) {
      continue;
    }
    std::sort(known.begin(), known.end());
    known.erase(std::unique(known.begin(), known.end()), known.end());
    std::string valid;
    for (const std::string& k : known) valid += " --" + k;
    std::fprintf(stderr, "error: unknown flag %s (valid flags:%s)\n", arg,
                 valid.c_str());
    std::exit(2);
  }
}

}  // namespace canon::bench

#endif  // CANON_BENCH_FLAGS_H
