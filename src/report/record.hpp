#pragma once

#include <cstdio>
#include <locale>
#include <span>
#include <sstream>
#include <string>

#include "report/table.hpp"

namespace kcoup::report {

/// One field of a flat metrics record: CSV/JSON key, table label, member.
template <typename Record, typename T>
struct Field {
  const char* key;
  const char* label;
  T Record::*value;
};

/// A flat metrics record's fields — counts, then seconds — and its three
/// renderings: a two-column table, a CSV header line and row, and one JSONL
/// object.  Each walks the same list, so keys, labels and order agree.
template <typename Record, typename Count>
struct RecordFields {
  std::span<const Field<Record, Count>> counts;
  std::span<const Field<Record, double>> seconds;

  /// Counts as integers, seconds as "%.6f s".
  [[nodiscard]] Table table(const std::string& title, const Record& r) const {
    Table t(title);
    t.set_header({"metric", "value"});
    for (const auto& f : counts) {
      t.add_row({f.label, std::to_string(r.*f.value)});
    }
    for (const auto& f : seconds) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6f s", r.*f.value);
      t.add_row({f.label, buf});
    }
    return t;
  }

  [[nodiscard]] std::string csv(const Record& r) const {
    std::ostringstream out;
    out.imbue(std::locale::classic());
    each(out, r, [&out](const char* key, const auto&) { out << key; });
    out << '\n';
    each(out, r, [&out](const char*, const auto& value) { out << value; });
    out << '\n';
    return out.str();
  }

  [[nodiscard]] std::string jsonl(const Record& r) const {
    std::ostringstream out;
    out.imbue(std::locale::classic());
    out << '{';
    each(out, r, [&out](const char* key, const auto& value) {
      out << '"' << key << "\":" << value;
    });
    out << "}\n";
    return out.str();
  }

 private:
  /// visit(key, value) for every field, with ',' written between them.
  template <typename Visit>
  void each(std::ostream& out, const Record& r, Visit visit) const {
    const char* separator = "";
    for (const auto& f : counts) {
      out << separator;
      visit(f.key, r.*f.value);
      separator = ",";
    }
    for (const auto& f : seconds) {
      out << separator;
      visit(f.key, r.*f.value);
    }
  }
};

}  // namespace kcoup::report
