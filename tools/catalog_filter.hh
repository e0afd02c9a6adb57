/**
 * @file
 * Catalog selection for ccbench — factored out of ccbench.cc so the
 * behaviour is unit-testable without spawning subprocesses.
 *
 * Two selection mechanisms compose (a bench runs when it passes both):
 *  - positional BENCH arguments: plain substring match, any-of;
 *  - --filter PATTERN flags: ECMAScript regex, partial match, any-of.
 */

#ifndef CCACHE_TOOLS_CATALOG_FILTER_HH
#define CCACHE_TOOLS_CATALOG_FILTER_HH

#include <regex>
#include <string>
#include <vector>

namespace cctools {

/** Bench-name selection: substrings (positional args) + regexes
 *  (--filter). An empty filter selects everything. */
class CatalogFilter
{
  public:
    void addSubstring(std::string s) { substrings_.push_back(std::move(s)); }

    /** Compile and add one regex; false (with @p error set) when the
     *  pattern does not parse. */
    bool addRegex(const std::string &pattern, std::string *error)
    {
        try {
            regexes_.emplace_back(pattern, std::regex::ECMAScript);
        } catch (const std::regex_error &e) {
            if (error)
                *error = e.what();
            return false;
        }
        return true;
    }

    /** True when @p name passes the selection: it must match at least
     *  one substring (if any are given) and at least one regex (if any
     *  are given). */
    bool matches(const std::string &name) const
    {
        if (!substrings_.empty()) {
            bool any = false;
            for (const std::string &s : substrings_)
                any = any || name.find(s) != std::string::npos;
            if (!any)
                return false;
        }
        if (!regexes_.empty()) {
            bool any = false;
            for (const std::regex &re : regexes_)
                any = any || std::regex_search(name, re);
            if (!any)
                return false;
        }
        return true;
    }

  private:
    std::vector<std::string> substrings_;
    std::vector<std::regex> regexes_;
};

} // namespace cctools

#endif // CCACHE_TOOLS_CATALOG_FILTER_HH
