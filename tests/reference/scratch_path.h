/**
 * @file
 * Names for the scratch files tests write under testing::TempDir().
 * A name carries the running test's suite and name, the process id
 * and a tag, so neither ctest's parallel test processes nor the
 * suites of two build trees running at once on one host ever share a
 * file.
 */

#ifndef VMT_TESTS_REFERENCE_SCRATCH_PATH_H
#define VMT_TESTS_REFERENCE_SCRATCH_PATH_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace vmt::reference {

/**
 * TempDir()/vmt_<suite>.<test>_<pid>_<tag>. `tag` tells a test's
 * files apart and carries the extension. A typed or parameterised
 * test's '/' becomes '_'.
 */
inline std::string
scratchPath(const std::string &tag)
{
    std::string name = "vmt_";
    if (const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
        name += info->test_suite_name();
        name += '.';
        name += info->name();
    }
    std::replace(name.begin(), name.end(), '/', '_');
    return ::testing::TempDir() + name + "_" +
           std::to_string(::getpid()) + "_" + tag;
}

} // namespace vmt::reference

#endif // VMT_TESTS_REFERENCE_SCRATCH_PATH_H
