/**
 * @file
 * Unit tests for the CSV writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "reference/scratch_path.h"
#include "util/csv.h"
#include "util/logging.h"

namespace vmt {
namespace {

std::string
readAll(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

class CsvTest : public ::testing::Test
{
  protected:
    // One file per test and process.
    std::string path_ = reference::scratchPath("out.csv");

    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesPlainRows)
{
    {
        CsvWriter w(path_);
        w.writeRow(std::vector<std::string>{"a", "b", "c"});
        w.writeRow(std::vector<std::string>{"1", "2", "3"});
    }
    EXPECT_EQ(readAll(path_), "a,b,c\n1,2,3\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters)
{
    {
        CsvWriter w(path_);
        w.writeRow(std::vector<std::string>{"has,comma", "has\"quote"});
    }
    EXPECT_EQ(readAll(path_), "\"has,comma\",\"has\"\"quote\"\n");
}

TEST_F(CsvTest, WritesDoubleRows)
{
    {
        CsvWriter w(path_);
        w.writeRow(std::vector<double>{1.5, -2.0});
    }
    EXPECT_EQ(readAll(path_), "1.5,-2\n");
}

TEST(Csv, UnwritablePathIsFatal)
{
    EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), FatalError);
}

} // namespace
} // namespace vmt
