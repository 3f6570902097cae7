// ASCII table printer the reproduction report (src/repro/) uses to emit the
// paper's tables/figure series in a uniform format.

#ifndef SRC_COMMON_TABLE_H_
#define SRC_COMMON_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace byterobust {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  // Renders the table with aligned columns and a header separator.
  std::string Render() const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Number formatting helpers for table cells.
std::string FormatDouble(double v, int precision);
std::string FormatPercent(double fraction, int precision = 1);
std::string FormatInt(std::int64_t v);

}  // namespace byterobust

#endif  // SRC_COMMON_TABLE_H_
