/**
 * @file
 * A2 [ablation] — Hash-table geometry vs match quality.
 *
 * Sweeps set count (indexBits) and associativity (ways): more ways
 * approximate deeper software chains (better matches, bigger SRAM);
 * more sets reduce aliasing. Reported: compression ratio with exact
 * DHT (isolating match quality from table quality) and the SRAM cost.
 */

#include "bench_common.h"

#include "nx/dht_generator.h"
#include "nx/hash_table.h"
#include "nx/huffman_stage.h"
#include "nx/match_pipeline.h"

int
main()
{
    bench::banner("A2", "hash-table geometry ablation");

    auto data = workloads::makeMixed(4 << 20, 3203);

    util::Table t("A2: sets x ways vs ratio and SRAM");
    t.header({"indexBits", "ways", "SRAM KiB", "matched bytes %",
              "ratio (exact DHT)"});
    for (int index_bits : {10, 12, 14}) {
        for (int ways : {1, 2, 4, 8}) {
            auto cfg = nx::NxConfig::power9();
            cfg.hash.indexBits = index_bits;
            cfg.hash.ways = ways;
            nx::MatchPipeline pipe(cfg);
            auto res = pipe.run(data);

            nx::DhtGenerator gen(cfg);
            auto dht = gen.generate(res.tokens, data.size(),
                                    nx::DhtMode::TwoPass);
            nx::HuffmanStage huff(cfg);
            auto enc = huff.encodeDynamic(res.tokens, dht.codes);
            double ratio = static_cast<double>(data.size()) /
                static_cast<double>(enc.bytes.size());
            double matched = 100.0 *
                static_cast<double>(res.matchedBytes) /
                static_cast<double>(data.size());

            nx::BankedHashTable table(cfg.hash);
            t.row({std::to_string(index_bits), std::to_string(ways),
                   util::Table::fmt(static_cast<double>(
                       table.sramBits()) / 8192.0, 1),
                   util::Table::fmt(matched, 1),
                   util::Table::fmt(ratio)});
        }
    }
    t.note("shipped point: 2^12-13 sets x 8 ways — past that, ratio "
           "gains flatten while SRAM doubles per index bit");
    t.print();
    return 0;
}
