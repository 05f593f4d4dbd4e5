#ifndef SPRINGDTW_UTIL_FLAGS_H_
#define SPRINGDTW_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace springdtw {
namespace util {

/// Minimal command-line flag parser for the examples and bench drivers.
/// Accepts "--name=value", "--name value", and bare "--name" (== "true").
/// Anything that does not start with "--" is a positional argument.
///
/// Example:
///   FlagParser flags(argc, argv);
///   int64_t n = flags.GetInt64("n", 20000);
///   double eps = flags.GetDouble("epsilon", 100.0);
class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  /// True if the flag appeared on the command line.
  bool Has(const std::string& name) const;

  /// Typed getters with defaults; malformed values fall back to the default.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt64(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program_name() const { return program_name_; }

  /// For tools that refuse bad input: one message per given flag that no
  /// getter (or Has) asked for ("unknown flag --name") and per value a
  /// getter could not parse ("malformed --name=value"). Call after reading
  /// every accepted flag.
  std::vector<std::string> Errors() const;

 private:
  /// The flag's value, or null when absent; marks the flag as read.
  const std::string* Find(const std::string& name) const;

  std::string program_name_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
  mutable std::set<std::string> malformed_;
};

}  // namespace util
}  // namespace springdtw

#endif  // SPRINGDTW_UTIL_FLAGS_H_
