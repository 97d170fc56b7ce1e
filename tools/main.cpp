// kcoup — command-line driver for the kernel-coupling prediction library:
// the dispatch table of its subcommands, and their usage text.

#include <cstdio>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "commands.hpp"
#include "serve/server.hpp"

namespace {

using namespace kcoup::cli;

void usage() {
  std::printf(
      "kcoup — kernel-coupling performance prediction (HPDC 2002 repro)\n\n"
      "usage:\n"
      "  kcoup study       --app bt|sp|lu --class S|W|A|B [--procs 4,9,16]\n"
      "                    [--chains 2,3] [--machine ibm-sp|generic-smp]\n"
      "                    [--csv prefix]\n"
      "  kcoup transitions [--app bt] [--procs 4] [--sizes 8,16,...]\n"
      "                    [--csv prefix]\n"
      "  kcoup reuse       --app bt|sp|lu --class C --donor P --targets P,..\n"
      "                    [--chains q]\n"
      "  kcoup parallel    --app bt|sp|lu --n N [--iters I] [--procs P]\n"
      "                    [--chains 2,3]\n"
      "  kcoup campaign    --apps bt,sp --classes S,W --procs 4,9\n"
      "                    [--chains 2,3] [--workers N | --serial] [--quiet]\n"
      "                    [--spec file] [--reps R] [--warmup W]\n"
      "                    [--epilogue-reps R]\n"
      "                    [--retry-rsd F] [--retry-max N] [--db store.csv]\n"
      "                    [--metrics-csv path] [--metrics-jsonl path]\n"
      "                    [--journal path.jsonl]\n"
      "                    [--shards N --shard-id K --journal-dir DIR\n"
      "                     [--steal] [--steal-after-s S]]\n"
      "                    [--fault-seed N] [--fault-construct-rate F]\n"
      "                    [--fault-measure-rate F] [--fault-noise-rate F]\n"
      "                    [--fault-abort-after N]\n"
      "                    [--trace-out trace.json]\n"
      "                    [--machine ibm-sp|generic-smp]\n"
      "  kcoup merge       DIR [--shards N] [--out store.csv] [--spec file]\n"
      "                    [--steal] [--workers N] [--quiet]\n"
      "                    [--metrics-csv path] [--metrics-jsonl path]\n"
      "                    [--trace-out trace.json]\n"
      "  kcoup serve       --db store.csv [--port P] [--shards N]\n"
      "                    [--max-inflight N] [--max-pipeline N]\n"
      "                    [--force-poll] [--poll-ms MS]\n"
      "                    [--cache-capacity N] [--no-models] [--quiet]\n"
      "                    [--max-requests N] [--port-file path]\n"
      "                    [--slowlog-slowest K] [--slowlog-failed N]\n"
      "                    [--metrics-csv path] [--metrics-jsonl path]\n"
      "                    [--trace-out trace.json]\n"
      "                    [--machine ibm-sp|generic-smp]\n"
      "  kcoup pack        db.csv [-o db.kcs] [--no-models] [--quiet]\n"
      "                    [--machine ibm-sp|generic-smp]\n"
      "  kcoup pack        --verify db.kcs [--quiet]\n"
      "  kcoup fit         db.csv|db.kcs [--json] [--no-models]\n"
      "                    [--machine ibm-sp|generic-smp]\n"
      "  kcoup query       --port P [--host H] --app bt|sp|lu --class C\n"
      "                    [--procs 4,9] [--chains 2,3] [--raw]\n"
      "                    [--trace-id ID] [--trace-out trace.json]\n"
      "  kcoup query       --port P [--host H] --stats\n"
      "  kcoup stats       --port P [--host H] [--raw | --prom]\n"
      "  kcoup slowlog     --port P [--host H]\n"
      "  kcoup top         --port P [--host H] [--interval-ms MS]\n"
      "                    [--count N]\n"
      "  kcoup machines\n"
      "  kcoup --version\n\n"
      "exit codes: 0 success; 1 runtime error (also: any served query\n"
      "failed); 2 usage error; 3 campaign or merge completed with task\n"
      "failures (partial results; failed values reported as nan); 4 serve\n"
      "could not bind its listening socket; 5 merge incomplete (planned\n"
      "tasks with no journal record anywhere).\n");
}

int cmd_help(const Flags&) {
  usage();
  return 0;
}

/// One subcommand: its function, the flags that take no value, whether
/// bare arguments reach it as positionals, and whether `-o` spells --out.
struct Command {
  const char* name;
  int (*run)(const Flags&);
  std::set<std::string> switches;
  bool positional = false;
  bool short_out = false;
};

const std::vector<Command> kCommands = {
    {"study", cmd_study, {}},
    {"transitions", cmd_transitions, {}},
    {"reuse", cmd_reuse, {}},
    {"parallel", cmd_parallel, {}},
    {"campaign", cmd_campaign, {"serial", "quiet", "steal"}},
    {"merge", cmd_merge, {"steal", "quiet"}, true},
    {"serve", cmd_serve, {"no-models", "quiet", "force-poll"}},
    {"pack", cmd_pack, {"verify", "quiet", "no-models"}, true, true},
    {"fit", cmd_fit, {"json", "no-models"}, true},
    {"query", cmd_query, {"stats", "raw"}},
    {"stats", cmd_stats, {"raw", "prom"}},
    {"slowlog", cmd_slowlog, {}},
    {"top", cmd_top, {}},
    {"machines", cmd_machines, {}},
    {"help", cmd_help, {}},
    {"--help", cmd_help, {}},
    {"-h", cmd_help, {}},
};

// An unknown command's arguments are still read, so a malformed line is
// refused as such before the command name is.
const Command kUnknown{"", nullptr, {}};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--version" || cmd == "version") {
#ifdef KCOUP_VERSION
    std::printf("kcoup %s\n", KCOUP_VERSION);
#else
    std::printf("kcoup (unversioned build)\n");
#endif
    return 0;
  }
  const Command* command = &kUnknown;
  for (const Command& c : kCommands) {
    if (cmd == c.name) command = &c;
  }
  try {
    std::vector<std::string> args(argv + 2, argv + argc);
    for (std::string& arg : args) {
      if (command->short_out && arg == "-o") arg = "--out";
    }
    const Flags flags(args, command->switches, command->positional);
    if (command->run == nullptr) {
      std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
      usage();
      return 2;
    }
    return command->run(flags);
  } catch (const kcoup::serve::BindError& e) {
    std::fprintf(stderr, "kcoup %s: %s\n", cmd.c_str(), e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kcoup %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
