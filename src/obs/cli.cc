#include "obs/cli.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace fsoi::obs {

namespace {

/** Value of "--name=value" when @p arg matches, else nullptr. */
const char *
matchValue(const char *arg, const char *name)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

} // namespace

CliOptions
parseCliOptions(int &argc, char **argv)
{
    CliOptions opts;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        char *arg = argv[i];
        if (const char *v = matchValue(arg, "--stats-json")) {
            opts.stats_json = v;
        } else if (const char *v2 = matchValue(arg, "--stats-csv")) {
            opts.stats_csv = v2;
        } else if (const char *v3 = matchValue(arg, "--stats-interval")) {
            const long n = std::atol(v3);
            if (n <= 0)
                fatal("--stats-interval wants a positive cycle count, "
                      "got '%s'", v3);
            opts.stats_interval = static_cast<Cycle>(n);
        } else if (const char *v4 = matchValue(arg, "--seed")) {
            char *end = nullptr;
            opts.seed = std::strtoull(v4, &end, 0);
            if (end == v4 || *end != '\0' || opts.seed == 0)
                fatal("--seed wants a positive integer, got '%s'", v4);
        } else if (const char *v5 = matchValue(arg, "--checkpoint")) {
            opts.checkpoint = v5;
        } else if (const char *v6 = matchValue(arg, "--restore")) {
            opts.restore = v6;
        } else if (const char *v7 = matchValue(arg, "--checkpoint-every")) {
            const long n = std::atol(v7);
            if (n <= 0)
                fatal("--checkpoint-every wants a positive cycle count, "
                      "got '%s'", v7);
            opts.checkpoint_every = static_cast<Cycle>(n);
        } else if (std::strcmp(arg, "--stats") == 0) {
            opts.stats_text = true;
        } else {
            argv[kept++] = arg;
        }
    }
    argc = kept;
    argv[argc] = nullptr;
    return opts;
}

} // namespace fsoi::obs
