#include "util/flags.h"

#include "util/string_util.h"

namespace springdtw {
namespace util {

FlagParser::FlagParser(int argc, char** argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

const std::string* FlagParser::Find(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it != values_.end() ? &it->second : nullptr;
}

bool FlagParser::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  const std::string* value = Find(name);
  return value != nullptr ? *value : default_value;
}

int64_t FlagParser::GetInt64(const std::string& name,
                             int64_t default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  int64_t out = 0;
  if (ParseInt64(*value, &out)) return out;
  malformed_.insert(name);
  return default_value;
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  double out = 0.0;
  if (ParseDouble(*value, &out)) return out;
  malformed_.insert(name);
  return default_value;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  malformed_.insert(name);
  return default_value;
}

std::vector<std::string> FlagParser::Errors() const {
  std::vector<std::string> errors;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) {
      errors.push_back("unknown flag --" + name);
    } else if (malformed_.count(name) > 0) {
      errors.push_back("malformed --" + name + "=" + value);
    }
  }
  return errors;
}

}  // namespace util
}  // namespace springdtw
