#ifndef JIM_UTIL_TABLE_PRINTER_H_
#define JIM_UTIL_TABLE_PRINTER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace jim::util {

/// Column alignment for TablePrinter.
enum class Align { kLeft, kRight };

/// Formats rows of strings as an aligned ASCII table — used by every bench
/// binary and the console UI so the output matches the tables in
/// EXPERIMENTS.md.
///
///   TablePrinter t({"strategy", "interactions"});
///   t.AddRow({"lookahead", "7"});
///   std::cout << t.ToString();
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Per-column alignment; default is left for all.
  void SetAlignments(std::vector<Align> alignments);

  void AddRow(std::vector<std::string> row);
  /// Inserts a horizontal rule before the next added row.
  void AddSeparator();

  std::string ToString() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator_before = false;
  };

  std::vector<std::string> header_;
  std::vector<Align> alignments_;
  std::vector<Row> rows_;
  bool pending_separator_ = false;
};

/// Renders a horizontal ASCII bar chart (Figure-4 style): one labeled bar
/// per entry, scaled to `max_width` characters, value printed at the end.
std::string BarChart(const std::vector<std::pair<std::string, double>>& bars,
                     size_t max_width = 50);

}  // namespace jim::util

#endif  // JIM_UTIL_TABLE_PRINTER_H_
