//===- dfs/PartitionMap.cpp -----------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/PartitionMap.h"
#include "support/Assert.h"
#include <bit>
#include <cstring>

using namespace dmb;

uint64_t dmb::fnv1a64(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

unsigned PartitionMap::partitionOf(uint64_t Hash, uint64_t Bitmap) {
  DMB_ASSERT(Bitmap & 1, "partition 0 must always be present");
  unsigned I = static_cast<unsigned>(Hash) & (MaxPartitions - 1);
  while (I && !((Bitmap >> I) & 1))
    I ^= std::bit_floor(I); // drop the most significant bit
  return I;
}

std::string PartitionMap::partitionDirName(uint64_t Token,
                                           unsigned Partition) {
  std::string Out;
  appendPartitionDirName(Out, Token, Partition);
  return Out;
}

void PartitionMap::appendPartitionDirName(std::string &Out, uint64_t Token,
                                          unsigned Partition) {
  // "/giga/%016llx.%u", spelled out: this runs once per routed request.
  static constexpr char Hex[] = "0123456789abcdef";
  char Buf[6 + 16 + 1 + 10];
  std::memcpy(Buf, "/giga/", 6);
  for (unsigned I = 0; I < 16; ++I)
    Buf[6 + I] = Hex[(Token >> (60 - 4 * I)) & 0xf];
  Buf[22] = '.';
  char Digits[10];
  unsigned N = 0;
  do {
    Digits[N++] = static_cast<char>('0' + Partition % 10);
    Partition /= 10;
  } while (Partition);
  for (unsigned I = 0; I < N; ++I)
    Buf[23 + I] = Digits[N - 1 - I];
  Out.append(Buf, 23 + N);
}

bool PartitionMap::parse(std::string_view PhysPath, ParsedPath &Out) {
  constexpr std::string_view Prefix = "/giga/";
  if (PhysPath.substr(0, Prefix.size()) != Prefix)
    return false;
  std::string_view Rest = PhysPath.substr(Prefix.size());
  if (Rest.size() < 18 || Rest[16] != '.')
    return false;
  uint64_t Token = 0;
  for (unsigned I = 0; I < 16; ++I) {
    char C = Rest[I];
    unsigned Digit;
    if (C >= '0' && C <= '9')
      Digit = C - '0';
    else if (C >= 'a' && C <= 'f')
      Digit = 10 + (C - 'a');
    else
      return false;
    Token = (Token << 4) | Digit;
  }
  Rest.remove_prefix(17);
  unsigned Partition = 0;
  size_t I = 0;
  while (I < Rest.size() && Rest[I] >= '0' && Rest[I] <= '9') {
    Partition = Partition * 10 + (Rest[I] - '0');
    ++I;
  }
  if (I == 0 || Partition >= MaxPartitions)
    return false;
  if (I == Rest.size()) {
    Out = {Token, Partition, std::string_view()};
    return true;
  }
  if (Rest[I] != '/' || I + 1 == Rest.size())
    return false;
  std::string_view Leaf = Rest.substr(I + 1);
  if (Leaf.find('/') != std::string_view::npos)
    return false;
  Out = {Token, Partition, Leaf};
  return true;
}

unsigned PartitionMap::splitChild(const GigaDir &D, unsigned P,
                                  unsigned MaxParts) {
  DMB_ASSERT((D.Bitmap >> P) & 1, "splitting an absent partition");
  unsigned Depth = D.Depth[P];
  if (Depth >= MaxRadix)
    return MaxPartitions;
  unsigned Child = P | (1u << Depth);
  if (Child >= MaxParts || Child >= MaxPartitions)
    return MaxPartitions;
  DMB_ASSERT(!((D.Bitmap >> Child) & 1), "split child already present");
  return Child;
}

GigaDir &PartitionMap::registerDir(const std::string &VPath) {
  uint64_t Token = fnv1a64(VPath);
  auto [It, Inserted] = Dirs.try_emplace(Token);
  if (Inserted) {
    It->second.VPath = VPath;
    It->second.Token = Token;
    ++Epoch;
  }
  return It->second;
}

void PartitionMap::unregisterDir(uint64_t Token) {
  if (Dirs.erase(Token))
    ++Epoch;
}

GigaDir *PartitionMap::dir(uint64_t Token) {
  auto It = Dirs.find(Token);
  return It == Dirs.end() ? nullptr : &It->second;
}

const GigaDir *PartitionMap::dir(uint64_t Token) const {
  auto It = Dirs.find(Token);
  return It == Dirs.end() ? nullptr : &It->second;
}

void PartitionMap::commitSplit(GigaDir &D, unsigned P, unsigned Child) {
  DMB_ASSERT(Child < MaxPartitions && !((D.Bitmap >> Child) & 1),
             "invalid split child");
  D.Bitmap |= uint64_t(1) << Child;
  D.Depth[Child] = static_cast<uint8_t>(D.Depth[P] + 1);
  D.Depth[P] = static_cast<uint8_t>(D.Depth[P] + 1);
  ++Epoch;
}
