#include "util/options.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.h"

namespace mpcgs {

Options Options::parse(int argc, const char* const* argv) {
    Options o;
    if (argc > 0) o.program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) == 0) {
            a = a.substr(2);
            const auto eq = a.find('=');
            if (eq != std::string::npos) {
                o.kv_[a.substr(0, eq)] = a.substr(eq + 1);
            } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
                o.kv_[a] = argv[++i];
            } else {
                o.kv_[a] = "";  // bare flag
            }
        } else {
            o.positional_.push_back(a);
        }
    }
    return o;
}

bool Options::has(const std::string& key) const { return kv_.count(key) > 0; }

void Options::requireKnown(std::span<const char* const> known, const std::string& scope) const {
    for (const auto& kv : kv_)
        if (std::none_of(known.begin(), known.end(),
                         [&](const char* k) { return kv.first == k; }))
            throw ConfigError(scope.empty() ? "unknown option --" + kv.first
                                            : "--" + kv.first + " does not apply to " + scope);
}

std::optional<std::string> Options::get(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return std::nullopt;
    return it->second;
}

std::string Options::get(const std::string& key, const std::string& dflt) const {
    return get(key).value_or(dflt);
}

namespace {

[[noreturn]] void reject(const std::string& name, const std::string& text,
                         const char* expected) {
    throw ConfigError(name + " expects " + expected + ", got '" + text + "'");
}

/// Parse all of `text` with `conv` (strtoll / strtod), or throw naming
/// `name` and what was expected.
template <class Conv>
auto parseWhole(const std::string& name, const std::string& text, const char* expected,
                Conv conv) {
    const char* begin = text.c_str();
    char* end = nullptr;
    errno = 0;
    const auto value = conv(begin, &end);
    if (end == begin || *end != '\0' || errno == ERANGE) reject(name, text, expected);
    return value;
}

}  // namespace

long long parseInt(const std::string& name, const std::string& text) {
    return parseWhole(name, text, "an integer",
                      [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

double parseDouble(const std::string& name, const std::string& text) {
    constexpr const char* kExpected = "a finite number";
    const double value = parseWhole(
        name, text, kExpected, [](const char* s, char** end) { return std::strtod(s, end); });
    if (!std::isfinite(value)) reject(name, text, kExpected);
    return value;
}

long long Options::getInt(const std::string& key, long long dflt) const {
    const auto v = get(key);
    if (!v || v->empty()) return dflt;
    return parseInt("--" + key, *v);
}

double Options::getDouble(const std::string& key, double dflt) const {
    const auto v = get(key);
    if (!v || v->empty()) return dflt;
    return parseDouble("--" + key, *v);
}

std::size_t Options::getCount(const std::string& key, std::size_t dflt,
                              std::size_t max) const {
    const auto v = get(key);
    if (!v || v->empty()) return dflt;
    const long long n = getInt(key, 0);
    if (n < 0)
        throw ConfigError("--" + key + " expects a non-negative count, got '" + *v + "'");
    if (static_cast<unsigned long long>(n) > max)
        throw ConfigError("--" + key + " expects at most " + std::to_string(max) + ", got '" +
                          *v + "'");
    return static_cast<std::size_t>(n);
}

bool Options::getBool(const std::string& key, bool dflt) const {
    const auto v = get(key);
    if (!v) return dflt;
    if (v->empty() || *v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
    return false;
}

}  // namespace mpcgs
