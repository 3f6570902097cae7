// The paper-reproduction report (`byterobust reproduce`): one Markdown
// section per reproduced table, figure, ablation and baseline, plus the
// restart-cost / WAS model across scales.
//
// Each section returns its Markdown and one PaperCheck per number the text
// compares with the paper. A paper value is written once, in the section
// that prints it, and feeds both the printed "paper" column or sentence and
// the check; tests/repro_test.cc asserts every check.

#ifndef SRC_REPRO_REPRO_H_
#define SRC_REPRO_REPRO_H_

#include <cmath>
#include <span>
#include <string>
#include <vector>

namespace byterobust {

// One reproduced number against the paper's.
struct PaperCheck {
  std::string id;  // "<section>.<metric>[.<row>]"
  double value = 0.0;
  double paper_value = 0.0;
  double tolerance = 0.0;  // largest |value - paper_value| that still agrees
  std::string why;         // what is compared, and why this tolerance

  bool Within() const { return std::fabs(value - paper_value) <= tolerance; }
};

struct ReproSection {
  std::string markdown;
  std::vector<PaperCheck> checks;
};

struct ReproSectionSpec {
  const char* name;
  ReproSection (*run)();
};

// Every section, in report order.
std::span<const ReproSectionSpec> ReproSections();

// The whole report: a title, then each section under a "## <name>" heading.
std::string RenderReproReport();

}  // namespace byterobust

#endif  // SRC_REPRO_REPRO_H_
