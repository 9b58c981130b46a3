/**
 * @file
 * nxzip — a gzip-compatible command-line tool over the library.
 *
 * Usage:
 *   nxzip [-d] [-j N] [-1|-6|-9] [-c chip] [-m fht|dht|auto|sw] <in> <out>
 *
 * Compresses <in> to a gzip member at <out> (or decompresses with
 * -d). The output interoperates with standard gzip/gunzip — the
 * integration tests exercise exactly that. The one-call path is an
 * nx::Session: inputs of at least 4 KiB go through the accelerator
 * model and print the modelled device time, smaller ones and `-m sw`
 * run on the software codec.
 *
 * `-j N` compresses 1 MiB chunks on N engines through one Session and
 * writes the members in input order — the pigz shape. gunzip accepts
 * the resulting multi-member concatenation. `-d -j N` reads like `-d`:
 * a gzip file has no index of its members, so finding where each one
 * ends means inflating the file, which is the whole job.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "core/topology.h"
#include "util/checked.h"
#include "util/table.h"

namespace {

std::vector<uint8_t>
readFile(const std::string &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    ok = static_cast<bool>(in);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

bool
writeFile(const std::string &path, const std::vector<uint8_t> &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    // size_t -> streamsize is a sign change; make it checked rather
    // than hoping no one ever writes a >2^63-byte result.
    out.write(reinterpret_cast<const char *>(data.data()),
              nx::checked_cast<std::streamsize>(data.size()));
    return static_cast<bool>(out);
}

int
usage()
{
    std::fprintf(stderr,
        "usage: nxzip [-d] [-j N] [-1|-6|-9] [-c power9|z15] "
        "[-m fht|dht|dht2|auto|sw] <in> <out>\n");
    return 2;
}

/**
 * The -j compress path: up to @p workers client threads compress the
 * chunks through one Session over a JobServer of @p workers engines,
 * and the members are written in input order. Reports the modelled
 * parallel time (busiest engine) plus the backpressure of the run.
 */
int
runParallel(int workers, const core::ChipTopology &topo,
            nx::SessionPolicy pol, const std::vector<uint8_t> &input,
            const std::string &outPath)
{
    std::vector<std::span<const uint8_t>> chunks;
    const size_t kChunk = size_t{1} << 20;
    size_t off = 0;
    do {    // do/while so empty input still emits one member
        size_t n = std::min(kChunk, input.size() - off);
        chunks.push_back(std::span<const uint8_t>(input).subspan(off, n));
        off += n;
    } while (off < input.size());

    core::JobServerConfig jcfg;
    jcfg.workers = workers;
    core::JobServer srv(topo.accel, jcfg);
    pol.accelThresholdBytes = 0;          // every chunk on the engine
    pol.backoff.maxAttempts = 1 << 20;    // a CLI run never gives up
    nx::Session sess(srv, pol);

    std::vector<nx::SessionResult> members(chunks.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> clients;
    const size_t nClients =
        std::min(chunks.size(), nx::checked_cast<size_t>(workers));
    for (size_t c = 0; c < nClients; ++c)
        clients.emplace_back([&] {
            for (size_t i = next++; i < chunks.size(); i = next++)
                members[i] = sess.compress(chunks[i]);
        });
    for (auto &t : clients)
        t.join();

    std::vector<uint8_t> out;
    for (size_t i = 0; i < members.size(); ++i) {
        if (!members[i].ok) {
            std::fprintf(stderr, "nxzip: chunk %zu failed (%s)\n", i,
                         members[i].error.c_str());
            return 1;
        }
        out.insert(out.end(), members[i].data.begin(),
                   members[i].data.end());
    }

    auto st = srv.stats();
    if (!writeFile(outPath, out)) {
        std::fprintf(stderr, "nxzip: cannot write %s\n", outPath.c_str());
        return 1;
    }
    double seconds = st.modelledSeconds(topo.accel);
    std::fprintf(stderr,
        "nxzip: compressed %zu -> %zu bytes (parallel x%d, %zu jobs, "
        "%llu busy-rejects, %s modelled, %.1f us)\n",
        input.size(), out.size(), srv.workerCount(), chunks.size(),
        static_cast<unsigned long long>(st.busyRejects),
        util::Table::fmtRate(seconds > 0
            ? static_cast<double>(input.size()) / seconds
            : 0).c_str(),
        seconds * 1e6);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool decompress = false;
    int level = 6;
    int jobs = 0;
    std::string chip = "power9";
    std::string mode = "auto";
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-d") {
            decompress = true;
        } else if (arg.size() == 2 && arg[0] == '-' &&
                   arg[1] >= '0' && arg[1] <= '9') {
            level = arg[1] - '0';
        } else if (arg == "-c" && i + 1 < argc) {
            chip = argv[++i];
        } else if (arg == "-m" && i + 1 < argc) {
            mode = argv[++i];
        } else if (arg == "-j" && i + 1 < argc) {
            jobs = std::atoi(argv[++i]);    // tools/ scope; 0 on junk
            if (jobs < 1)
                return usage();
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 2)
        return usage();

    bool ok = false;
    auto input = readFile(files[0], ok);
    if (!ok) {
        std::fprintf(stderr, "nxzip: cannot read %s\n",
                     files[0].c_str());
        return 1;
    }

    core::ChipTopology topo;
    if (chip == "z15")
        topo = core::z15Chip();
    else if (chip == "power9")
        topo = core::power9Chip();
    else
        return usage();    // an unknown chip must not silently model POWER9
    nx::SessionPolicy pol;
    pol.level = level;
    if (mode == "fht")
        pol.mode = core::Mode::Fht;
    else if (mode == "dht")
        pol.mode = core::Mode::DhtSampled;
    else if (mode == "dht2")
        pol.mode = core::Mode::DhtTwoPass;
    else if (mode == "auto")
        pol.mode = core::Mode::Auto;
    else if (mode == "sw")
        pol.forceSoftware = true;    // everything on the core
    else
        return usage();

    if (jobs > 0) {
        if (mode == "sw") {
            std::fprintf(stderr,
                         "nxzip: -j needs the accelerator (-m sw "
                         "runs on the core)\n");
            return usage();
        }
        if (!decompress)
            return runParallel(jobs, topo, pol, input, files[1]);
    }

    nx::Session sess(topo.accel, pol);
    nx::SessionResult res = decompress ? sess.decompress(input)
                                       : sess.compress(input);
    if (!res.ok) {
        std::fprintf(stderr, "nxzip: %s failed: %s\n",
                     decompress ? "decompress" : "compress",
                     res.error.c_str());
        return 1;
    }
    if (!writeFile(files[1], res.data)) {
        std::fprintf(stderr, "nxzip: cannot write %s\n",
                     files[1].c_str());
        return 1;
    }

    std::fprintf(stderr,
        "nxzip: %s %zu -> %zu bytes (%s path, %s, %.1f us)\n",
        decompress ? "decompressed" : "compressed", input.size(),
        res.data.size(), nx::toString(res.backend),
        util::Table::fmtRate(res.seconds > 0
            ? static_cast<double>(input.size()) / res.seconds
            : 0).c_str(),
        res.seconds * 1e6);
    return 0;
}
