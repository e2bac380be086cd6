// Differential fuzz of MatrixOverlay::Parse against the iostream parser it
// replaced, which this program keeps as its reference (ReferenceParse). The
// two must accept exactly the same texts with the same entries (compared
// through Serialize(), which round-trips every double and keeps the sign of
// a zero), and reject the same texts with the same Status, line number and
// message included.
//
// Inputs, all over one base space (categorical attributes of cardinality 4
// and 12, one numeric attribute):
//   1. pinned edge cases, each with its expected verdict: signs and special
//      values (+0.5, -0, inf, nan), range and hex forms (1e400, 1e-400,
//      0x1p3), short forms and trailing junk (.5, 5., 0.5abc), separators
//      (tabs, CRLF, \v, \f), comments, and a missing final newline;
//   2. a seeded corpus: Serialize() of random overlays, then byte
//      replacements, insertions, deletions, spliced tokens from a
//      dictionary of numeric forms and separators, and truncations.
//
// Deliberately gtest-free so ci.sh can run it under ASan/UBSan with only
// instrumented code. Exits 0 when every check holds, 1 otherwise.
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "sim/matrix_overlay.h"
#include "sim/similarity_space.h"

namespace nmrs {
namespace {

// The iostream parser MatrixOverlay::Parse used before it split lines and
// tokens itself, kept verbatim but for the public Set it calls.
StatusOr<MatrixOverlay> ReferenceParse(const SimilaritySpace& base,
                                       const std::string& text) {
  MatrixOverlay overlay(base);
  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  std::istringstream fields;
  std::string attr_tok, from_tok, to_tok, extra;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    const auto bad_line = [&](const std::string& msg) {
      return Status::InvalidArgument("overlay line " + std::to_string(lineno) +
                                     ": " + msg);
    };
    fields.clear();
    fields.str(line);
    double d = 0.0;
    if (!(fields >> attr_tok >> from_tok >> to_tok >> d)) {
      return bad_line("expected \"attr from to d\", got \"" + line + "\"");
    }
    if (fields >> extra) {
      return bad_line("trailing tokens after \"attr from to d\"");
    }
    const StatusOr<uint64_t> attr = ParseDigits("attr", attr_tok);
    const StatusOr<uint64_t> from = ParseDigits("from", from_tok);
    const StatusOr<uint64_t> to = ParseDigits("to", to_tok);
    for (const StatusOr<uint64_t>* id : {&attr, &from, &to}) {
      if (!id->ok()) return bad_line(id->status().message());
    }
    if (*attr > std::numeric_limits<AttrId>::max() ||
        *from > std::numeric_limits<ValueId>::max() ||
        *to > std::numeric_limits<ValueId>::max()) {
      return bad_line("attr or value id out of range");
    }
    Status s = overlay.Set(static_cast<AttrId>(*attr),
                           static_cast<ValueId>(*from),
                           static_cast<ValueId>(*to), d);
    if (!s.ok()) return bad_line(s.message());
  }
  return overlay;
}

struct Tally {
  uint64_t texts = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t mismatches = 0;
};

std::string Printable(const std::string& text) {
  std::string out;
  for (char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

void Fail(Tally* tally, const std::string& text, const std::string& what) {
  if (++tally->mismatches <= 10) {
    std::fprintf(stderr, "MISMATCH on \"%s\": %s\n", Printable(text).c_str(),
                 what.c_str());
  }
}

// Runs both parsers on `text`; returns whether the parse accepted it.
bool Compare(const SimilaritySpace& base, const std::string& text,
             Tally* tally) {
  ++tally->texts;
  const StatusOr<MatrixOverlay> got = MatrixOverlay::Parse(base, text);
  const StatusOr<MatrixOverlay> want = ReferenceParse(base, text);
  if (got.ok() != want.ok()) {
    Fail(tally, text,
         std::string("parse ") + (got.ok() ? "accepts" : "rejects") +
             ", reference " + (want.ok() ? "accepts" : "rejects") + ": " +
             (got.ok() ? want.status() : got.status()).ToString());
    return got.ok();
  }
  if (got.ok()) {
    ++tally->accepted;
    if (got->Serialize() != want->Serialize()) {
      Fail(tally, text, "entries differ: \"" + Printable(got->Serialize()) +
                            "\" vs \"" + Printable(want->Serialize()) + "\"");
    }
  } else {
    ++tally->rejected;
    if (!(got.status() == want.status())) {
      Fail(tally, text,
           got.status().ToString() + " vs " + want.status().ToString());
    }
  }
  return got.ok();
}

SimilaritySpace BaseSpace(Rng& rng) {
  SimilaritySpace space;
  space.AddCategorical(MakeRandomMatrix(4, rng));
  space.AddCategorical(MakeRandomMatrix(12, rng));
  space.AddNumeric(NumericDissimilarity());
  return space;
}

// Texts whose verdict is pinned, so the reference's own behaviour cannot
// drift unseen with the standard library.
struct Pinned {
  std::string_view text;
  bool accept;
};

const Pinned kPinned[] = {
    {"0 1 2 +0.5\n", true},
    {"0 1 2 -0\n", true},
    {"0 1 2 -0.0e5\n", true},
    {"0 1 2 inf\n", false},
    {"0 1 2 nan\n", false},
    {"0 1 2 -inf\n", false},
    {"0 1 2 1e400\n", false},
    {"0 1 2 1e-400\n", true},
    {"0 1 2 -1e-400\n", true},
    {"0 1 2 2.4703282292062327e-324\n", true},
    {"0 1 2 4.9406564584124654e-324\n", true},
    {"0 1 2 0x1p3\n", false},
    {"0 1 2 .5\n", true},
    {"0 1 2 5.\n", true},
    {"0 1 2 1.e1\n", true},
    {"0 1 2 .\n", false},
    {"0 1 2 +\n", false},
    {"0 1 2 -\n", false},
    {"0 1 2 +-1\n", false},
    {"0 1 2 1e\n", false},
    {"0 1 2 1e+\n", false},
    {"0 1 2 1ex\n", false},
    {"0 1 2 e5\n", false},
    {"0 1 2 0.5abc\n", false},
    {"0 1 2 1.2.3\n", false},
    {"0 1 2 1e5e\n", false},
    {"0 1 2 0005\n", true},
    {"0 1 2 -1\n", false},
    {"0\t1\t2\t0.5\n", true},
    {"0 1 2 0.5\r\n1 3 4 0.25\r\n", true},
    {"0 1 2 0.5\v\n", true},
    {"\f0 1 2 0.5\n", true},
    {"\v\n", false},
    {"\r\n\t\n  # comment\n0 1 2 0.5\n", true},
    {"0 1 2 0.5 # comment\n", false},
    {"0 1 2 0.5", true},
    {"0 1 2 0.5\n1 2", false},
    {"", true},
    {"\n", true},
    {"0 1 2\n", false},
    {"0 1 2 0.5 7\n", false},
    {"0 1 1 0.5\n", false},
    {"2 0 1 0.5\n", false},
    {"3 0 1 0.5\n", false},
    {"0 4 1 0.5\n", false},
    {"4294967296 0 1 0.5\n", false},
    {"18446744073709551616 0 1 0.5\n", false},
    {"+0 1 2 0.5\n", false},
    {"0 1 2 0.5\n0 1 2 0.75\n", true},
    {std::string_view("0 1 2 0.5\0\n", 11), false},
};

// Spliced into texts by the mutator.
const char* const kDictionary[] = {
    "inf",  "nan",   "1e400", "1e-400", "0x1p3", "-0",  "+",    "-",
    ".",    "e",     "E",     "e+",     "1e",    ".5",  "5.",   "abc",
    "\t",   "\r\n",  "\v",    "\f",     "\n",    "#",   " ",    "0",
    "3",    "11",    "12",    "4294967296",     "18446744073709551616",
    "0.25", "1e-310", "00",   "\n#",    "  ",    "2.4703282292062327e-324",
};

const char kAlphabet[] = " \t\r\n\v\f#+-.eEx0123456789aifn";

std::string Mutate(std::string text, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.Uniform(4));
  for (int e = 0; e < edits; ++e) {
    const size_t pos = text.empty() ? 0 : rng.Uniform(text.size() + 1);
    switch (rng.Uniform(6)) {
      case 0:  // replace one byte
        if (pos < text.size()) {
          text[pos] = kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)];
        }
        break;
      case 1:  // insert one byte, now and then an arbitrary one
        text.insert(pos, 1,
                    rng.Bernoulli(0.1)
                        ? static_cast<char>(rng.Uniform(256))
                        : kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]);
        break;
      case 2:  // delete a short span
        if (pos < text.size()) text.erase(pos, 1 + rng.Uniform(4));
        break;
      case 3: {  // splice a dictionary token
        const size_t n = sizeof(kDictionary) / sizeof(kDictionary[0]);
        text.insert(pos, kDictionary[rng.Uniform(n)]);
        break;
      }
      case 4:  // truncate
        text.resize(pos);
        break;
      default:  // duplicate a span
        if (pos < text.size()) {
          text.insert(pos, text.substr(pos, 1 + rng.Uniform(12)));
        }
        break;
    }
  }
  return text;
}

}  // namespace
}  // namespace nmrs

int main() {
  using namespace nmrs;
  Rng rng(20261021);
  const SimilaritySpace base = BaseSpace(rng);
  Tally tally;

  for (const Pinned& p : kPinned) {
    const std::string text(p.text);
    if (Compare(base, text, &tally) != p.accept) {
      Fail(&tally, text,
           std::string("pinned verdict is ") + (p.accept ? "accept" : "reject"));
    }
  }

  const double fractions[] = {0.0, 0.02, 0.1, 0.3};
  for (int round = 0; round < 400; ++round) {
    const MatrixOverlay overlay =
        MakeRandomOverlay(base, rng, fractions[rng.Uniform(4)]);
    const std::string text = overlay.Serialize();
    Compare(base, text, &tally);
    for (int m = 0; m < 40; ++m) Compare(base, Mutate(text, rng), &tally);
  }

  std::printf(
      "overlay_parse_fuzz: %llu texts, %llu accepted, %llu rejected, %llu "
      "mismatches\n",
      static_cast<unsigned long long>(tally.texts),
      static_cast<unsigned long long>(tally.accepted),
      static_cast<unsigned long long>(tally.rejected),
      static_cast<unsigned long long>(tally.mismatches));
  // Both verdicts must be well represented, or the corpus proves little.
  const bool covered = tally.accepted >= 1000 && tally.rejected >= 1000;
  if (!covered) std::fprintf(stderr, "coverage too thin\n");
  return tally.mismatches == 0 && covered ? 0 : 1;
}
