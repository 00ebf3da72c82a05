// Machine and build facts printed beside every result, so results from
// different machines or builds are never compared blindly.

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "common/simd.h"

namespace perfbench {

namespace {

/** The CPU brand string from cpuid; no file outside the run is read. */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max = __get_cpuid_max(0x80000000u, nullptr);
    if (max < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; i++)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    return first == std::string::npos ? "unknown"
                                      : s.substr(first, last - first + 1);
#else
    return "unknown";
#endif
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' ? v : fallback;
}

} // namespace

std::string
provenanceJson(const Workload &w, std::uint64_t seed, double seconds,
               bool trace)
{
    std::string s = "{\"provenance\": {";
    s += "\"workload\": " + quoted(w.name);
    s += ", \"seed\": " + std::to_string(seed);
    s += ", \"seconds\": " + std::to_string(seconds);
    s += ", \"trace\": " + std::string(trace ? "1" : "0");
    s += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
    s += ", \"cpu_model\": " + quoted(cpuModel());
    s += ", \"simd_backend\": " +
         quoted(enode::simdBackendName(enode::activeSimdBackend()));
    s += ", \"compiler\": " + quoted(PERFBENCH_COMPILER);
    s += ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
    // run.py passes these in: the checkout the benchmark runs from need
    // not be a git repository, so the sha may be unavailable.
    s += ", \"git_sha\": " + quoted(envOr("PERFBENCH_GIT_SHA", "unavailable"));
    s += ", \"source_sha256\": " +
         quoted(envOr("PERFBENCH_SOURCE_SHA256", "unavailable"));
    s += ", \"server_workers\": " + std::to_string(kWorkers);
    return s + "}}";
}

} // namespace perfbench
