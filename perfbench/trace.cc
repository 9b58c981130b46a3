#include "trace.h"

#include <cstdio>
#include <filesystem>
#include <memory>

namespace perfbench {

namespace {

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};

} // namespace

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 const std::vector<std::string> &trackNames)
{
    std::error_code ec;
    std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "w"));
    if (!f)
        return false;
    std::FILE *out = f.get();
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
    bool first = true;
    for (size_t t = 0; t < trackNames.size(); ++t) {
        std::fprintf(out,
                     "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                     first ? "" : ",\n", t, trackNames[t].c_str());
        first = false;
    }
    for (const Span &s : spans) {
        std::fprintf(out,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu,"
                     "\"request\":%llu",
                     first ? "" : ",\n", s.name, s.layer, s.track,
                     static_cast<double>(s.beginNs) / 1e3,
                     static_cast<double>(s.endNs - s.beginNs) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
        first = false;
        if (s.backend != nullptr)
            std::fprintf(out,
                         ",\"backend\":\"%s\",\"fell_back\":%s,"
                         "\"leg_seconds\":%.9g,\"leg_clock\":\"%s\"",
                         s.backend, s.fellBack ? "true" : "false",
                         s.legSeconds, s.legClock);
        std::fputs("}}", out);
    }
    std::fputs("\n]}\n", out);
    return std::ferror(out) == 0 && std::fclose(f.release()) == 0;
}

} // namespace perfbench
