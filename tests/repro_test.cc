// Paper fidelity of the reproduction report (src/repro/): every number a
// section compares with the paper agrees within its check's tolerance, or is
// a known deviation that its section explains.
//
// kKnownDeviations may only shrink: an entry whose check comes back within
// tolerance fails here and must leave the list. A check that misses is
// either a model bug to fix or a deviation to list with the reason its
// section prints; its tolerance is never widened to make it pass.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "src/repro/repro.h"

namespace byterobust {
namespace {

struct KnownDeviation {
  const char* id;
  const char* reason;  // a phrase the check's section prints
};

constexpr KnownDeviation kKnownDeviations[] = {
    {"fig8.bulk_blocking_gap_s", "Known deviation: the bulk baseline blocks"},
    {"table2.user_code_share.Job Hang", "to match the campaign-wide rollback"},
    {"table2.user_code_share.CUDA Error", "to match the campaign-wide rollback"},
    {"table2.user_code_share.NaN value", "to match the campaign-wide rollback"},
    {"table4.lesson_share.dense.eviction", "share of failures in both jobs"},
    {"table4.lesson_share.moe.eviction", "share of failures in both jobs"},
    {"table4.lesson_share.moe.reattempt", "share of failures in both jobs"},
    {"table6.mean_s.CUDA Error", "each cost one eviction plus a"},
    {"table6.mean_s.OS Kernel Panic", "each cost one eviction plus a"},
    {"table6.mean_s.GPU Memory Error", "each cost one eviction plus a"},
    {"table6.mean_s.GPU Unavailable", "each cost one eviction plus a"},
    {"table6.mean_s.Infiniband Error", "Infiniband loses to selective testing"},
    {"table6.mean_s.HDFS Error", "Infiniband and HDFS errors spend minutes"},
    {"table6.mean_s.NaN value", "The NaN suite localizes the SDC"},
    {"table8.blocking_s.Memory save.256B-512x16", "Memory-save blocking *shrinks* at 256B"},
    {"table8.blocking_s.Memory save.256B-1024x16", "Memory-save blocking *shrinks* at 256B"},
};

struct RunSection {
  std::string name;
  ReproSection section;
};

// Every section, run once for the whole suite.
const std::vector<RunSection>& Sections() {
  static const std::vector<RunSection> sections = [] {
    std::vector<RunSection> out;
    for (const ReproSectionSpec& spec : ReproSections()) {
      out.push_back({spec.name, spec.run()});
    }
    return out;
  }();
  return sections;
}

const KnownDeviation* FindDeviation(const std::string& id) {
  for (const KnownDeviation& d : kKnownDeviations) {
    if (id == d.id) {
      return &d;
    }
  }
  return nullptr;
}

std::string Describe(const PaperCheck& c) {
  return c.id + ": " + std::to_string(c.value) + " vs paper " + std::to_string(c.paper_value) +
         " (tolerance " + std::to_string(c.tolerance) + "; " + c.why + ")";
}

TEST(ReproTest, ChecksAreWellFormedAndUnique) {
  std::set<std::string> ids;
  std::size_t checks = 0;
  for (const RunSection& s : Sections()) {
    EXPECT_FALSE(s.section.markdown.empty()) << s.name;
    for (const PaperCheck& c : s.section.checks) {
      ++checks;
      EXPECT_TRUE(ids.insert(c.id).second) << "duplicate check id " << c.id;
      EXPECT_TRUE(std::isfinite(c.paper_value)) << c.id;
      EXPECT_TRUE(std::isfinite(c.tolerance) && c.tolerance > 0.0) << c.id;
      EXPECT_FALSE(c.why.empty()) << c.id;
    }
  }
  EXPECT_GE(checks, 60u);
}

TEST(ReproTest, EveryCheckAgreesWithThePaperOrIsAKnownDeviation) {
  for (const RunSection& s : Sections()) {
    for (const PaperCheck& c : s.section.checks) {
      if (FindDeviation(c.id) == nullptr) {
        EXPECT_TRUE(c.Within()) << Describe(c);
      }
    }
  }
}

TEST(ReproTest, EveryKnownDeviationStillMissesAndItsSectionSaysWhy) {
  for (const KnownDeviation& d : kKnownDeviations) {
    const RunSection* owner = nullptr;
    const PaperCheck* check = nullptr;
    for (const RunSection& s : Sections()) {
      for (const PaperCheck& c : s.section.checks) {
        if (c.id == d.id) {
          owner = &s;
          check = &c;
        }
      }
    }
    ASSERT_NE(check, nullptr) << "known deviation " << d.id << " names no check";
    EXPECT_FALSE(check->Within())
        << "fixed, so it must leave kKnownDeviations: " << Describe(*check);
    EXPECT_NE(owner->section.markdown.find(d.reason), std::string::npos)
        << owner->name << " does not print the reason for " << d.id << ": " << d.reason;
  }
}

TEST(ReproTest, ReportPrintsEverySectionInOrder) {
  const std::string report = RenderReproReport();
  std::size_t at = 0;
  for (const RunSection& s : Sections()) {
    const std::string block = "\n## " + s.name + "\n\n" + s.section.markdown;
    const std::size_t found = report.find(block, at);
    ASSERT_NE(found, std::string::npos) << s.name;
    at = found + block.size();
  }
  EXPECT_EQ(at, report.size());
}

}  // namespace
}  // namespace byterobust
