#include "util/csv.h"

#include <cstdio>
#include <sstream>

#include "util/fs.h"

namespace inc::util
{

void
CsvWriter::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
CsvWriter::addRow(std::vector<std::string> row)
{
    rows_.push_back(std::move(row));
}

std::string
CsvWriter::escape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out += "\"";
    return out;
}

std::string
CsvWriter::render() const
{
    std::string out;
    auto emit = [&out](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i) {
            if (i)
                out.push_back(',');
            out += escape(row[i]);
        }
        out.push_back('\n');
    };
    if (!header_.empty())
        emit(header_);
    for (const auto &row : rows_)
        emit(row);
    return out;
}

bool
CsvWriter::write(const std::string &path) const
{
    return writeFile(path, render());
}

std::vector<std::vector<std::string>>
parseCsv(const std::string &content)
{
    std::vector<std::vector<std::string>> rows;
    std::istringstream in(content);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        std::vector<std::string> row;
        std::string cell;
        bool quoted = false;
        for (size_t i = 0; i < line.size(); ++i) {
            const char c = line[i];
            if (quoted) {
                if (c == '"') {
                    if (i + 1 < line.size() && line[i + 1] == '"') {
                        cell.push_back('"');
                        ++i;
                    } else {
                        quoted = false;
                    }
                } else {
                    cell.push_back(c);
                }
            } else if (c == '"') {
                quoted = true;
            } else if (c == ',') {
                row.push_back(std::move(cell));
                cell.clear();
            } else {
                cell.push_back(c);
            }
        }
        row.push_back(std::move(cell));
        rows.push_back(std::move(row));
    }
    return rows;
}

std::vector<std::vector<std::string>>
readCsv(const std::string &path)
{
    std::string content;
    return readFile(path, &content) ? parseCsv(content)
                                    : std::vector<std::vector<std::string>>{};
}

} // namespace inc::util
