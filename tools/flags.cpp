#include "flags.hpp"

#include <sstream>
#include <stdexcept>

#include "support/num_format.hpp"

namespace kcoup::cli {

namespace {

[[noreturn]] void refuse(const std::string& key, const std::string& bounds,
                         const std::string& got) {
  throw std::runtime_error("--" + key + " must be " + bounds + ", got " + got);
}

[[noreturn]] void bad(const char* what, const std::string& key,
                      const std::string& text) {
  throw std::runtime_error(std::string("bad ") + what + " for --" + key +
                           ": '" + text + "'");
}

}  // namespace

Flags::Flags(const std::vector<std::string>& args,
             const std::set<std::string>& switches, bool positional) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      if (!positional) {
        throw std::runtime_error("expected --flag, got '" + arg + "'");
      }
      positionals_.push_back(arg);
      continue;
    }
    const std::string key = arg.substr(2);
    if (switches.count(key)) {
      values_.try_emplace(key);  // present; a switch has no value
      continue;
    }
    if (i + 1 >= args.size()) {
      throw std::runtime_error("missing value for --" + key);
    }
    values_[key] = args[++i];
  }
}

std::optional<std::string> Flags::maybe(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  used_.insert(key);
  return it->second;
}

std::optional<std::string> Flags::value(const std::string& key,
                                        bool has_fallback) const {
  auto v = maybe(key);
  if (!v && !has_fallback) {
    throw std::runtime_error("missing required --" + key);
  }
  return v;
}

std::string Flags::text(const std::string& key,
                        std::optional<std::string> fallback) const {
  const auto v = value(key, fallback.has_value());
  return v ? *v : *fallback;
}

bool Flags::flag(const std::string& key) const {
  return maybe(key).has_value();
}

void Flags::check_all_used() const {
  for (const auto& [key, v] : values_) {
    if (!used_.count(key)) throw std::runtime_error("unknown flag --" + key);
  }
}

int Flags::to_int(const std::string& key, const std::string& text, int min,
                  int max) {
  const auto n = support::parse_int<int>(text);
  if (!n) bad("integer", key, text);
  if (*n < min || *n > max) {
    refuse(key,
           max == kIntMax ? ">= " + std::to_string(min)
                          : "in [" + std::to_string(min) + ", " +
                                std::to_string(max) + "]",
           std::to_string(*n));
  }
  return *n;
}

std::vector<std::string> Flags::split(const std::string& key,
                                      const std::string& list) {
  std::vector<std::string> out;
  std::istringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  if (out.empty()) {
    throw std::runtime_error("empty list for --" + key + ": '" + list + "'");
  }
  return out;
}

std::uint64_t Flags::u64(const std::string& key, std::uint64_t fallback) const {
  const auto v = maybe(key);
  if (!v) return fallback;
  const auto n = support::parse_int<std::uint64_t>(*v);
  if (!n) bad("integer", key, *v);
  return *n;
}

double Flags::number(const std::string& key, std::optional<double> fallback,
                     double min, double max) const {
  const auto v = value(key, fallback.has_value());
  if (!v) return *fallback;
  const auto d = support::parse_double(*v);
  if (!d) bad("number", key, *v);
  if (!(*d >= min && *d <= max)) {
    const std::string lo = support::format_double(min);
    refuse(key,
           max == std::numeric_limits<double>::infinity()
               ? ">= " + lo
               : "in [" + lo + ", " + support::format_double(max) + "]",
           *v);
  }
  return *d;
}

npb::ProblemClass Flags::problem_class() const {
  return class_named(text("class"));
}

machine::MachineConfig Flags::machine() const {
  return machine_named(text("machine", "ibm-sp"));
}

npb::Benchmark benchmark_named(const std::string& name) {
  if (const auto b = npb::parse_benchmark(name)) return *b;
  throw std::runtime_error("unknown app '" + name + "' (use bt/sp/lu)");
}

npb::ProblemClass class_named(const std::string& name) {
  if (const auto c = npb::parse_class(name)) return *c;
  throw std::runtime_error("unknown class '" + name + "' (use S/W/A/B)");
}

machine::MachineConfig machine_named(const std::string& name) {
  if (name == "ibm-sp" || name == "ibm-sp-p2sc") return machine::ibm_sp_p2sc();
  if (name == "generic-smp") return machine::generic_smp();
  throw std::runtime_error("unknown machine '" + name +
                           "' (use ibm-sp or generic-smp)");
}

}  // namespace kcoup::cli
