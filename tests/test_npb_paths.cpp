// Bit-for-bit pin of the timed and numeric NPB paths.
//
// Renders every double of a fixed set of timed parallel studies
// (run_{bt,sp,lu}_parallel_study) and numeric runs (run_bt, run_sp, run_lu:
// residuals, errors, each rank's virtual time, message count and payload
// bytes) as hexfloat text, and compares it byte for byte with
// tests/data/npb_paths.txt.  KCOUP_REGEN_GOLDEN=1 rewrites the file.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "coupling/parallel_measurement.hpp"
#include "machine/config.hpp"
#include "npb/bt/bt_app.hpp"
#include "npb/bt/bt_model.hpp"
#include "npb/lu/lu_app.hpp"
#include "npb/lu/lu_model.hpp"
#include "npb/sp/sp_app.hpp"
#include "npb/sp/sp_model.hpp"

namespace kcoup {
namespace {

void line(std::string& out, const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  out += key + " " + buf + "\n";
}

void line(std::string& out, const std::string& key, std::size_t v) {
  out += key + " " + std::to_string(v) + "\n";
}

void render(std::string& out, const std::string& tag,
            const coupling::ParallelStudyResult& r) {
  line(out, tag + " actual", r.actual_s);
  line(out, tag + " prologue", r.prologue_s);
  line(out, tag + " epilogue", r.epilogue_s);
  line(out, tag + " summation", r.summation_s);
  line(out, tag + " summation_error", r.summation_error);
  for (std::size_t k = 0; k < r.isolated_means.size(); ++k) {
    line(out, tag + " isolated[" + std::to_string(k) + "]",
         r.isolated_means[k]);
  }
  for (const coupling::ChainLengthResult& cl : r.by_length) {
    const std::string q = tag + " q=" + std::to_string(cl.length);
    for (const coupling::ChainCoupling& c : cl.chains) {
      const std::string s = q + " chain[" + std::to_string(c.start) + "]";
      line(out, s + " time", c.chain_time);
      line(out, s + " isolated_sum", c.isolated_sum);
    }
    for (std::size_t k = 0; k < cl.coefficients.size(); ++k) {
      line(out, q + " alpha[" + std::to_string(k) + "]", cl.coefficients[k]);
    }
    line(out, q + " prediction", cl.prediction_s);
    line(out, q + " relative_error", cl.relative_error);
  }
}

void render(std::string& out, const std::string& tag,
            const simmpi::RunResult& r) {
  line(out, tag + " makespan", r.makespan_s);
  for (std::size_t k = 0; k < r.rank_times_s.size(); ++k) {
    line(out, tag + " rank[" + std::to_string(k) + "]", r.rank_times_s[k]);
  }
  line(out, tag + " messages", r.messages);
  line(out, tag + " payload_bytes", r.payload_bytes);
}

template <typename Result>
void render_numeric(std::string& out, const std::string& tag,
                    const Result& r) {
  line(out, tag + " final_error", r.final_error);
  line(out, tag + " initial_residual", r.initial_residual);
  line(out, tag + " final_residual", r.final_residual);
  render(out, tag, r.run);
}

std::string render_all() {
  std::string out;
  using coupling::StudyOptions;
  const machine::MachineConfig sp2 = machine::ibm_sp_p2sc();

  npb::TimedOptions timed;
  timed.machine = sp2;
  render(out, "bt n=12 P=4",
         npb::bt::run_bt_parallel_study(12, 20, 4, timed,
                                        StudyOptions{{2, 3}, {}}));
  render(out, "bt n=32 P=16",
         npb::bt::run_bt_parallel_study(32, 4, 16, timed,
                                        StudyOptions{{1}, {}}));
  npb::TimedOptions jitter = timed;
  jitter.jitter = 0.2;
  render(out, "bt n=12 P=9 jitter=0.2",
         npb::bt::run_bt_parallel_study(12, 30, 9, jitter,
                                        StudyOptions{{2}, {}}));

  render(out, "sp n=12 P=4",
         npb::sp::run_sp_parallel_study(12, 40, 4, timed,
                                        StudyOptions{{2, 4}, {}}));
  render(out, "sp n=36 P=9",
         npb::sp::run_sp_parallel_study(36, 40, 9, timed,
                                        StudyOptions{{5}, {}}));

  render(out, "lu n=12 P=4",
         npb::lu::run_lu_parallel_study(12, 40, 4, timed,
                                        StudyOptions{{3}, {}}));
  npb::TimedOptions lu_slow = timed;
  lu_slow.machine.net_latency_s *= 10.0;
  render(out, "lu n=16 P=8 latency=10x",
         npb::lu::run_lu_parallel_study(16, 5, 8, lu_slow,
                                        StudyOptions{{2}, {}}));

  for (int p : {1, 4, 9}) {
    npb::bt::BtConfig c;
    c.n = 10;
    c.iterations = 15;
    render_numeric(out, "run_bt P=" + std::to_string(p),
                   npb::bt::run_bt(c, p));
  }
  for (int p : {1, 4, 9}) {
    npb::sp::SpConfig c;
    c.n = 10;
    c.iterations = 15;
    render_numeric(out, "run_sp P=" + std::to_string(p),
                   npb::sp::run_sp(c, p));
  }
  for (int p : {1, 4, 8}) {
    npb::lu::LuConfig c;
    c.n = 10;
    c.iterations = 15;
    const npb::lu::LuRunResult r = npb::lu::run_lu(c, p);
    render_numeric(out, "run_lu P=" + std::to_string(p), r);
    line(out, "run_lu P=" + std::to_string(p) + " surface_integral",
         r.surface_integral);
  }
  return out;
}

TEST(NpbPathsGolden, TimedAndNumericPathsStayBitIdentical) {
  const std::string path =
      std::string(KCOUP_TEST_DATA_DIR) + "/npb_paths.txt";
  const std::string text = render_all();

  if (std::getenv("KCOUP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path << " missing; run with KCOUP_REGEN_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), text)
      << "an NPB timed or numeric path drifted from tests/data/npb_paths.txt";
}

}  // namespace
}  // namespace kcoup
