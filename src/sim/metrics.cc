#include "sim/metrics.hh"

#include <initializer_list>

namespace clap
{

void
putCounter(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

bool
getCounter(std::string_view in, std::size_t &pos, std::uint64_t &v)
{
    if (pos + 8 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
            static_cast<std::uint8_t>(in[pos + i])) << (8 * i);
    pos += 8;
    return true;
}

void
putPredictionStats(std::string &out, const PredictionStats &stats)
{
    for (const std::uint64_t v :
         {stats.loads, stats.lbHits, stats.formed, stats.formedCorrect,
          stats.spec, stats.specCorrect})
        putCounter(out, v);
    for (const std::uint64_t v : stats.specBy)
        putCounter(out, v);
    for (const std::uint64_t v : stats.specCorrectBy)
        putCounter(out, v);
    putCounter(out, stats.bothSpec);
    for (const std::uint64_t v : stats.selectorState)
        putCounter(out, v);
    putCounter(out, stats.missSelections);
}

bool
getPredictionStats(std::string_view in, std::size_t &pos,
                   PredictionStats &stats)
{
    for (std::uint64_t *v :
         {&stats.loads, &stats.lbHits, &stats.formed,
          &stats.formedCorrect, &stats.spec, &stats.specCorrect})
        if (!getCounter(in, pos, *v))
            return false;
    for (std::uint64_t &v : stats.specBy)
        if (!getCounter(in, pos, v))
            return false;
    for (std::uint64_t &v : stats.specCorrectBy)
        if (!getCounter(in, pos, v))
            return false;
    if (!getCounter(in, pos, stats.bothSpec))
        return false;
    for (std::uint64_t &v : stats.selectorState)
        if (!getCounter(in, pos, v))
            return false;
    return getCounter(in, pos, stats.missSelections);
}

} // namespace clap
