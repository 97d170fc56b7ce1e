#include "campaign/journal.hpp"

#include <istream>
#include <stdexcept>

#include "support/json.hpp"
#include "support/num_format.hpp"

namespace kcoup::campaign {

std::string journal_line(const JournalEntry& entry) {
  std::string out = "{\"application\":\"";
  out += support::json::escape(entry.key.application);
  out += "\",\"config\":\"";
  out += support::json::escape(entry.key.config);
  out += "\",\"ranks\":" + std::to_string(entry.key.ranks);
  out += ",\"kind\":\"";
  out += to_string(entry.key.kind);
  out += "\",\"index\":" + std::to_string(entry.key.index);
  out += ",\"length\":" + std::to_string(entry.key.length);
  out += ",\"value\":" + support::format_double(entry.value);
  out += ",\"attempts\":" + std::to_string(entry.attempts);
  if (!entry.error.empty()) {
    // Only failures carry the field, so success lines are byte-identical to
    // the pre-failure-record format and old journals parse unchanged.
    out += ",\"error\":\"" + support::json::escape(entry.error) + "\"";
  }
  out += "}";
  return out;
}

std::optional<JournalEntry> parse_journal_line(const std::string& line) {
  const auto record = support::json::Object::parse(line);
  if (!record.has_value()) return std::nullopt;
  const auto application = record->string("application");
  const auto config = record->string("config");
  const auto kind_name = record->string("kind");
  const auto value = record->number("value");
  JournalEntry entry;
  // An integer field must be present and fit its type: casting a double
  // outside the type's range is undefined behaviour.
  const auto integer = [&record](const char* name, auto* out) {
    return record->number(name).has_value() &&
           support::json::read_integer(*record, name, out);
  };
  if (!application || !config || !kind_name || !value ||
      !integer("ranks", &entry.key.ranks) ||
      !integer("index", &entry.key.index) ||
      !integer("length", &entry.key.length) ||
      !integer("attempts", &entry.attempts)) {
    return std::nullopt;
  }
  const auto kind = parse_task_kind(*kind_name);
  if (!kind) return std::nullopt;
  entry.key.application = *application;
  entry.key.config = *config;
  entry.key.kind = *kind;
  entry.value = *value;
  if (const auto error = record->string("error")) entry.error = *error;
  return entry;
}

std::map<TaskKey, double> load_journal(std::istream& in) {
  std::map<TaskKey, double> completed;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (const auto entry = parse_journal_line(line)) {
      if (entry->ok()) completed[entry->key] = entry->value;
    }
  }
  return completed;
}

JournalLoad load_journal_entries(std::istream& in) {
  JournalLoad load;
  bool last_parsed = true;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    ++load.lines;
    const auto entry = parse_journal_line(line);
    if (!entry.has_value()) {
      // Provisionally the torn tail; reclassified as mid-stream garbage if
      // any later line follows it.
      if (!last_parsed) ++load.malformed;
      last_parsed = false;
      continue;
    }
    if (!last_parsed) {
      ++load.malformed;  // the earlier bad line was not the tail after all
      last_parsed = true;
    }
    if (entry->ok()) {
      load.completed.insert_or_assign(entry->key, *entry);
    } else {
      load.failed.insert_or_assign(entry->key, *entry);
    }
  }
  load.torn_tail = !last_parsed;
  return load;
}

JournalLoad load_journal_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return JournalLoad{};
  JournalLoad load = load_journal_entries(in);
  load.exists = true;
  return load;
}

TaskJournal::TaskJournal(const std::string& path)
    : out_(path, std::ios::app) {
  if (!out_) {
    throw std::runtime_error("TaskJournal: cannot open " + path);
  }
}

void TaskJournal::append(const JournalEntry& entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << journal_line(entry) << '\n';
  out_.flush();  // write-then-flush: a crash loses at most in-flight tasks
}

}  // namespace kcoup::campaign
