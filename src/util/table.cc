#include "util/table.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/logging.hh"

namespace javelin {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    JAVELIN_ASSERT(!headers_.empty(), "table needs at least one column");
}

Table &
Table::beginRow()
{
    cells_.emplace_back();
    return *this;
}

Table &
Table::cell(const std::string &s)
{
    JAVELIN_ASSERT(!cells_.empty(), "cell() before beginRow()");
    JAVELIN_ASSERT(cells_.back().size() < headers_.size(),
                   "row has too many cells");
    cells_.back().push_back(s);
    return *this;
}

Table &
Table::cell(const char *s)
{
    return cell(std::string(s));
}

Table &
Table::cell(std::int64_t v)
{
    return cell(std::to_string(v));
}

Table &
Table::cell(std::uint64_t v)
{
    return cell(std::to_string(v));
}

Table &
Table::cell(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return cell(os.str());
}

Table &
Table::cellPct(double fraction, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << fraction * 100.0
       << "%";
    return cell(os.str());
}

const std::string &
Table::at(std::size_t row, std::size_t col) const
{
    return cells_.at(row).at(col);
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : cells_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emitRow = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            const std::string &v = c < row.size() ? row[c] : std::string();
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << v;
        }
        os << '\n';
    };

    emitRow(headers_);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    os << std::string(total, '-') << '\n';
    for (const auto &row : cells_)
        emitRow(row);
}

} // namespace javelin
