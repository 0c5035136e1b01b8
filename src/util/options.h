// Minimal command-line option parsing for the tools, examples and bench
// harnesses. Supports --flag, --key value, --key=value and positional
// arguments; no external dependencies.
#pragma once

#include <cstddef>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mpcgs {

class Options {
  public:
    /// Parse argv. Anything starting with "--" is an option; a following
    /// token that is not an option is its value, otherwise it is a flag.
    static Options parse(int argc, const char* const* argv);

    bool has(const std::string& key) const;
    /// Throws ConfigError naming the first parsed option that is not in
    /// `known`, so a misspelt or retired flag cannot run with defaults.
    /// With a `scope` (a subcommand), the message says the option does not
    /// apply to it.
    void requireKnown(std::span<const char* const> known, const std::string& scope = "") const;

    std::optional<std::string> get(const std::string& key) const;
    std::string get(const std::string& key, const std::string& dflt) const;
    /// Numeric values parse with parseInt / parseDouble below, naming the
    /// flag. A missing or empty value returns `dflt`.
    long long getInt(const std::string& key, long long dflt) const;
    double getDouble(const std::string& key, double dflt) const;
    /// getInt for a count (samples, particles, threads, ...): also throws
    /// ConfigError naming the flag on a negative value or one above `max`.
    std::size_t getCount(const std::string& key, std::size_t dflt,
                         std::size_t max = std::numeric_limits<std::size_t>::max()) const;
    bool getBool(const std::string& key, bool dflt) const;

    const std::vector<std::string>& positional() const { return positional_; }
    const std::string& programName() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> kv_;
    std::vector<std::string> positional_;
};

/// Parse `text` as one whole token: an integer (parseInt) or a finite
/// number (parseDouble). "1e3" is not an integer, and "4x", "0.5.1", "nan"
/// and "inf" are not numbers; a malformed, out-of-range or non-finite value
/// throws ConfigError naming `name` (a flag such as "--theta" or a
/// positional such as "<init_theta>").
long long parseInt(const std::string& name, const std::string& text);
double parseDouble(const std::string& name, const std::string& text);

}  // namespace mpcgs
