#include "corpus.hh"

#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "simgen/synthesize.hh"
#include "trace.hh"

namespace perfbench {

namespace {

inline uint64_t
mix(uint64_t h, uint64_t word)
{
    h ^= word;
    h *= 0x9fb21c651e98df25ull;
    return h ^ (h >> 31);
}

uint64_t
hashBytes(uint64_t h, const std::string &text)
{
    const char *p = text.data();
    size_t left = text.size();
    while (left >= 8) {
        uint64_t word;
        std::memcpy(&word, p, 8);
        h = mix(h, word);
        p += 8;
        left -= 8;
    }
    uint64_t tail = 0;
    std::memcpy(&tail, p, left);
    return mix(h, tail ^ (static_cast<uint64_t>(text.size()) << 56));
}

} // namespace

uint64_t
readDigest(const sage::Read &read)
{
    uint64_t h = 0x243f6a8885a308d3ull;
    h = hashBytes(h, read.header);
    h = hashBytes(h, read.bases);
    return hashBytes(h, read.quals);
}

uint64_t
payloadBytes(const std::vector<sage::Read> &reads)
{
    uint64_t total = 0;
    for (const auto &read : reads)
        total += payloadBytes(read);
    return total;
}

InputSet
synthesize(const SetSpec &spec)
{
    sage::DatasetSpec ds =
        spec.longRead ? sage::makeRs4Spec() : sage::makeRs2Spec();
    ds.name = spec.name;
    ds.genome.referenceLength = uint64_t(spec.referenceKiB) << 10;
    ds.depth = spec.depth;
    // Long reads stay well inside the scaled-down genome.
    ds.sequencer.maxReadLength = std::min<unsigned>(
        ds.sequencer.maxReadLength, spec.referenceKiB * 1024 / 4);
    ds.seed = spec.seed;
    sage::SimulatedDataset sim = sage::synthesizeDataset(ds);
    InputSet input;
    input.spec = spec;
    input.reads = std::move(sim.readSet);
    input.reference = std::move(sim.reference);
    return input;
}

sage::SageWriteStats
writeArchive(const InputSet &input, std::vector<sage::Read> reads,
             const std::string &path, EncodeLedger &ledger)
{
    sage::ReadSet set;
    set.name = input.spec.name;
    set.technology = input.reads.technology;
    set.reads = std::move(reads);
    const uint64_t fastq = set.fastqBytes();

    sage::SageConfig config;
    config.chunkReads = input.spec.chunkReads;
    sage::FileSink file(path);
    TimingSink sink(file, ledger.write);
    sage::SageWriteStats stats;
    {
        ScopedSpan span("encoder.session");
        sage::SageWriter writer(sink, config);
        writer.add(std::move(set));
        ledger.pendingReadsMax =
            std::max(ledger.pendingReadsMax, writer.pendingReads());
        stats = writer.finish(input.reference);
    }
    file.close();

    ledger.mapSeconds += stats.mapSeconds;
    ledger.encodeSeconds += stats.encodeSeconds;
    ledger.tuneSeconds += stats.tuneSeconds;
    ledger.dnaBytes += stats.dnaBytes;
    ledger.qualityBytes += stats.qualityBytes;
    ledger.metaBytes += stats.metaBytes;
    ledger.archiveBytes += stats.archiveBytes;
    ledger.fastqBytes += fastq;
    return stats;
}

TimedReader::TimedReader(const std::string &path, DecodeLedger &ledger_)
    : file(path), source(file, ledger_.fetch), reader(source),
      ledger(ledger_)
{}

std::vector<sage::Read>
TimedReader::readChunk(size_t chunk, bool long_read)
{
    const uint64_t fetch_before = ledger.fetch.nanos.load();
    const double start = now();
    std::vector<sage::Read> reads;
    {
        ScopedSpan span("decoder.readChunk");
        reads = reader.readChunk(chunk);
    }
    const double seconds = now() - start;
    ledger.chunks++;
    ledger.reads += reads.size();
    ledger.chunkSeconds += seconds;
    ledger.fetchSeconds +=
        (ledger.fetch.nanos.load() - fetch_before) * 1e-9;
    const uint64_t payload = payloadBytes(reads);
    if (long_read) {
        ledger.longPayload += payload;
        ledger.longSeconds += seconds;
    } else {
        ledger.shortPayload += payload;
        ledger.shortSeconds += seconds;
    }
    return reads;
}

bool
verifyArchive(const std::string &path,
              const std::vector<sage::Read> &expected, bool long_read,
              DecodeLedger &ledger, BuiltArchive &out)
{
    std::unordered_map<std::string, size_t> byHeader;
    byHeader.reserve(expected.size());
    for (size_t i = 0; i < expected.size(); i++)
        byHeader.emplace(expected[i].header, i);

    TimedReader timed(path, ledger);
    std::vector<bool> seen(expected.size(), false);
    out.path = path;
    out.longRead = long_read;
    out.readCount = timed.reader.readCount();
    out.chunkCount = timed.reader.chunkCount();
    out.digests.clear();
    out.payloadPrefix.assign(1, 0);
    bool ok = out.readCount == expected.size();
    for (size_t c = 0; c < out.chunkCount; c++) {
        for (const sage::Read &read : timed.readChunk(c, long_read)) {
            auto it = byHeader.find(read.header);
            const bool match = it != byHeader.end() && !seen[it->second] &&
                read.bases == expected[it->second].bases &&
                read.quals == expected[it->second].quals;
            if (!match) {
                ok = false;
                continue;
            }
            seen[it->second] = true;
            out.digests.push_back(readDigest(read));
            out.payloadPrefix.push_back(out.payloadPrefix.back() +
                                        payloadBytes(read));
        }
    }
    ok = ok && out.digests.size() == expected.size();
    if (!ok) {
        std::fprintf(stderr, "perfbench: %s does not decode to its input\n",
                     path.c_str());
    }
    out.payloadBytes = out.payloadPrefix.back();
    return ok;
}

bool
buildArchive(const SetSpec &spec, const std::string &dir,
             EncodeLedger &encode, DecodeLedger &decode,
             BuiltArchive &out)
{
    InputSet input = synthesize(spec);
    const std::string path = dir + "/" + spec.name + ".sage";
    const sage::SageWriteStats stats =
        writeArchive(input, input.reads.reads, path, encode);
    out.name = spec.name + ".sage";
    out.fastqBytes = input.reads.fastqBytes();
    out.archiveBytes = stats.archiveBytes;
    return verifyArchive(path, input.reads.reads, spec.longRead, decode,
                         out);
}

uint64_t
countMismatches(const BuiltArchive &archive, uint64_t first,
                const std::vector<sage::Read> &reads)
{
    uint64_t bad = 0;
    for (size_t i = 0; i < reads.size(); i++) {
        const uint64_t index = first + i;
        if (index >= archive.digests.size() ||
            archive.digests[index] != readDigest(reads[i]))
            bad++;
    }
    return bad;
}

} // namespace perfbench
