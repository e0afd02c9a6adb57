/**
 * @file
 * Tests for ccbench's catalog selection (tools/catalog_filter.hh):
 * substring + regex composition and bad-regex reporting.
 */

#include <gtest/gtest.h>

#include <string>

#include "tools/catalog_filter.hh"

namespace {

using cctools::CatalogFilter;

TEST(CatalogFilter, EmptySelectsEverything)
{
    CatalogFilter f;
    EXPECT_TRUE(f.matches("anything_at_all"));
    EXPECT_TRUE(f.matches(""));
}

TEST(CatalogFilter, SubstringIsAnyOf)
{
    CatalogFilter f;
    f.addSubstring("fig7");
    f.addSubstring("serve");
    EXPECT_TRUE(f.matches("fig7_microbench"));
    EXPECT_TRUE(f.matches("serve_scheduler"));
    EXPECT_FALSE(f.matches("ablation_fault"));
}

TEST(CatalogFilter, RegexIsPartialMatch)
{
    CatalogFilter f;
    std::string err;
    ASSERT_TRUE(f.addRegex("^serve_", &err)) << err;
    EXPECT_TRUE(f.matches("serve_scheduler"));
    EXPECT_FALSE(f.matches("observe_serve"));   // anchored
}

TEST(CatalogFilter, SubstringAndRegexBothMustPass)
{
    CatalogFilter f;
    std::string err;
    f.addSubstring("sched");
    ASSERT_TRUE(f.addRegex("^serve", &err)) << err;
    EXPECT_TRUE(f.matches("serve_scheduler"));
    EXPECT_FALSE(f.matches("serve_latency"));   // regex ok, substring not
    EXPECT_FALSE(f.matches("noc_scheduler"));   // substring ok, regex not
}

TEST(CatalogFilter, BadRegexReportsError)
{
    CatalogFilter f;
    std::string err;
    EXPECT_FALSE(f.addRegex("*oops", &err));
    EXPECT_FALSE(err.empty());
    EXPECT_TRUE(f.matches("fig7_microbench"));   // nothing was added
}

} // namespace
