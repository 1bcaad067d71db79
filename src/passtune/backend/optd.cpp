// optd: a long-lived `opt -S -enable-new-pm=0` for LLVM 14.
//
// Usage: optd OPT_NAME
//
// OPT_NAME is the program name that diagnostics start with, as `opt`
// starts them with its argv[0]. Each request on standard input is
//
//   <IR byte count> <flag> <flag> ...\n  <IR bytes>
//
// and each reply on standard output is
//
//   <status> <byte count>\n  <bytes>
//
// with status 0 (the printed module) or 1 (the text `opt` would write to
// standard error before exiting with 1, or a line naming a repeated -O
// level or a flag that is not a pass). The program exits at the end of its
// input. A compile runs the legacy pass manager as LLVM 14's
// tools/opt/opt.cpp does, in a fresh LLVMContext.

#include "llvm/ADT/Triple.h"
#include "llvm/Analysis/TargetLibraryInfo.h"
#include "llvm/Analysis/TargetTransformInfo.h"
#include "llvm/CodeGen/CommandFlags.h"
#include "llvm/CodeGen/TargetPassConfig.h"
#include "llvm/IR/IRPrintingPasses.h"
#include "llvm/IR/LLVMContext.h"
#include "llvm/IR/LegacyPassManager.h"
#include "llvm/IR/Module.h"
#include "llvm/IR/Verifier.h"
#include "llvm/IRReader/IRReader.h"
#include "llvm/InitializePasses.h"
#include "llvm/MC/TargetRegistry.h"
#include "llvm/Support/InitLLVM.h"
#include "llvm/Support/MemoryBuffer.h"
#include "llvm/Support/SourceMgr.h"
#include "llvm/Support/TargetSelect.h"
#include "llvm/Support/raw_ostream.h"
#include "llvm/Target/TargetMachine.h"
#include "llvm/Transforms/IPO.h"
#include "llvm/Transforms/IPO/AlwaysInliner.h"
#include "llvm/Transforms/IPO/PassManagerBuilder.h"

#include <climits>
#include <cstdio>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

using namespace llvm;

static codegen::RegisterCodeGenFlags CFG;

namespace {

// opt's -O levels in the order it adds them: (name, OptLevel, SizeLevel).
struct Level {
  const char *Name;
  unsigned Opt, Size;
};
const Level Levels[] = {{"-O0", 0, 0}, {"-O1", 1, 0}, {"-O2", 2, 0},
                        {"-Os", 2, 1}, {"-Oz", 2, 2}, {"-O3", 3, 0}};
const int NumLevels = sizeof(Levels) / sizeof(Levels[0]);

enum Status { Printed = 0, Failed = 1 };

// opt.cpp's AddOptimizationPasses with its options at their defaults.
void addOptimizationPasses(legacy::PassManagerBase &MPM,
                           legacy::FunctionPassManager &FPM, TargetMachine *TM,
                           unsigned OptLevel, unsigned SizeLevel) {
  FPM.add(createVerifierPass());
  PassManagerBuilder Builder;
  Builder.OptLevel = OptLevel;
  Builder.SizeLevel = SizeLevel;
  if (OptLevel > 1)
    Builder.Inliner = createFunctionInliningPass(OptLevel, SizeLevel, false);
  else
    Builder.Inliner = createAlwaysInlinerLegacyPass();
  Builder.DisableUnrollLoops = OptLevel == 0;
  Builder.LoopVectorize = OptLevel > 1 && SizeLevel < 2;
  Builder.SLPVectorize = OptLevel > 1 && SizeLevel < 2;
  if (TM)
    TM->adjustPassManager(Builder);
  Builder.populateFunctionPassManager(FPM);
  Builder.populateModulePassManager(MPM);
}

// opt registers every target when it starts. A server does that when the
// first module that names a target arrives, so one that never sees such a
// module stays about 4 MB smaller.
void initializeTargetsOnce() {
  static const bool Done = [] {
    InitializeAllTargets();
    InitializeAllTargetMCs();
    InitializeAllAsmPrinters();
    InitializeAllAsmParsers();
    return true;
  }();
  (void)Done;
}

// opt.cpp's GetCodeGenOptLevel: by -O1 if given, else -O2, else -O3.
CodeGenOpt::Level codeGenOptLevel(const bool *Given) {
  if (Given[1])
    return CodeGenOpt::Less;
  if (Given[2])
    return CodeGenOpt::Default;
  if (Given[5])
    return CodeGenOpt::Aggressive;
  return CodeGenOpt::None;
}

Status compile(const char *Argv0, const std::vector<std::string> &Flags,
               const std::string &Text, std::string &Out) {
  raw_string_ostream OS(Out);

  // Positions of the -O levels in the list, and the passes in list order.
  int LevelAt[NumLevels];
  bool Given[NumLevels] = {};
  std::vector<std::pair<int, const PassInfo *>> Passes;
  for (int I = 0, E = Flags.size(); I != E; ++I) {
    int L = 0;
    while (L != NumLevels && Flags[I] != Levels[L].Name)
      ++L;
    if (L != NumLevels) {
      if (Given[L]) {
        OS << Argv0 << ": repeated " << Flags[I] << "\n";
        return Failed;
      }
      Given[L] = true;
      LevelAt[L] = I;
      continue;
    }
    const PassInfo *PI = nullptr;
    if (Flags[I].size() > 1 && Flags[I][0] == '-')
      PI = PassRegistry::getPassRegistry()->getPassInfo(Flags[I].substr(1));
    if (!PI || !PI->getNormalCtor()) {
      OS << Argv0 << ": not a pass: " << Flags[I] << "\n";
      return Failed;
    }
    Passes.emplace_back(I, PI);
  }

  LLVMContext Context;
  Context.enableDebugTypeODRUniquing();
  SMDiagnostic Err;
  auto Buffer = MemoryBuffer::getMemBufferCopy(Text, "<stdin>");
  std::unique_ptr<Module> M = parseIR(Buffer->getMemBufferRef(), Err, Context);
  if (!M) {
    Err.print(Argv0, OS);
    return Failed;
  }
  if (verifyModule(*M, &OS)) {
    OS << Argv0 << ": -: error: input module is broken!\n";
    return Failed;
  }

  Triple ModuleTriple(M->getTargetTriple());
  std::string CPUStr, FeaturesStr;
  std::unique_ptr<TargetMachine> TM;
  if (ModuleTriple.getArch()) {
    initializeTargetsOnce();
    CPUStr = codegen::getCPUStr();
    FeaturesStr = codegen::getFeaturesStr();
    std::string Message;
    if (const Target *T = TargetRegistry::lookupTarget(codegen::getMArch(),
                                                       ModuleTriple, Message))
      TM.reset(T->createTargetMachine(
          ModuleTriple.getTriple(), CPUStr, FeaturesStr,
          codegen::InitTargetOptionsFromCodeGenFlags(ModuleTriple),
          codegen::getExplicitRelocModel(), codegen::getExplicitCodeModel(),
          codeGenOptLevel(Given)));
  } else if (ModuleTriple.getArchName() != "unknown" &&
             ModuleTriple.getArchName() != "") {
    OS << Argv0 << ": unrecognized architecture '" << ModuleTriple.getArchName()
       << "' provided.\n";
    return Failed;
  }
  codegen::setFunctionAttributes(CPUStr, FeaturesStr, *M);

  legacy::PassManager PM;
  PM.add(new TargetLibraryInfoWrapperPass(TargetLibraryInfoImpl(ModuleTriple)));
  PM.add(createTargetTransformInfoWrapperPass(TM ? TM->getTargetIRAnalysis()
                                                 : TargetIRAnalysis()));
  std::unique_ptr<legacy::FunctionPassManager> FPM;
  bool AnyLevel = false;
  for (bool G : Given)
    AnyLevel |= G;
  if (AnyLevel) {
    FPM.reset(new legacy::FunctionPassManager(M.get()));
    FPM->add(createTargetTransformInfoWrapperPass(
        TM ? TM->getTargetIRAnalysis() : TargetIRAnalysis()));
  }
  if (TM)
    PM.add(static_cast<LLVMTargetMachine &>(*TM).createPassConfig(PM));

  // opt adds each -O level before the first pass listed after it, in the
  // fixed order of Levels, and the levels still left after the last pass.
  bool Added[NumLevels] = {};
  auto AddLevelsBefore = [&](int Position) {
    for (int L = 0; L != NumLevels; ++L)
      if (Given[L] && !Added[L] && LevelAt[L] < Position) {
        addOptimizationPasses(PM, *FPM, TM.get(), Levels[L].Opt, Levels[L].Size);
        Added[L] = true;
      }
  };
  for (auto &P : Passes) {
    AddLevelsBefore(P.first);
    PM.add(P.second->getNormalCtor()());
  }
  AddLevelsBefore(INT_MAX);

  if (FPM) {
    FPM->doInitialization();
    for (Function &F : *M)
      FPM->run(F);
    FPM->doFinalization();
  }
  PM.add(createVerifierPass());
  PM.add(createPrintModulePass(OS, "", false));
  PM.run(*M);
  return Printed;
}

} // namespace

int main(int argc, char **argv) {
  InitLLVM X(argc, argv);
  if (argc != 2) {
    errs() << "usage: optd OPT_NAME\n";
    return 2;
  }
  // Replies go to a copy of standard output; anything a pass prints to
  // standard output goes to standard error, so it cannot break a reply.
  FILE *Replies = fdopen(dup(1), "wb");
  if (!Replies || dup2(2, 1) < 0) {
    errs() << "optd: cannot set up standard output\n";
    return 2;
  }

  PassRegistry &Registry = *PassRegistry::getPassRegistry();
  initializeCore(Registry);
  initializeCoroutines(Registry);
  initializeScalarOpts(Registry);
  initializeObjCARCOpts(Registry);
  initializeVectorization(Registry);
  initializeIPO(Registry);
  initializeAnalysis(Registry);
  initializeTransformUtils(Registry);
  initializeInstCombine(Registry);
  initializeAggressiveInstCombine(Registry);
  initializeInstrumentation(Registry);
  initializeTarget(Registry);
  initializeExpandMemCmpPassPass(Registry);
  initializeScalarizeMaskedMemIntrinLegacyPassPass(Registry);
  initializeCodeGenPreparePass(Registry);
  initializeAtomicExpandPass(Registry);
  initializeRewriteSymbolsLegacyPassPass(Registry);
  initializeWinEHPreparePass(Registry);
  initializeDwarfEHPrepareLegacyPassPass(Registry);
  initializeSafeStackLegacyPassPass(Registry);
  initializeSjLjEHPreparePass(Registry);
  initializePreISelIntrinsicLoweringLegacyPassPass(Registry);
  initializeGlobalMergePass(Registry);
  initializeIndirectBrExpandPassPass(Registry);
  initializeInterleavedLoadCombinePass(Registry);
  initializeInterleavedAccessPass(Registry);
  initializeEntryExitInstrumenterPass(Registry);
  initializePostInlineEntryExitInstrumenterPass(Registry);
  initializeUnreachableBlockElimLegacyPassPass(Registry);
  initializeExpandReductionsPass(Registry);
  initializeExpandVectorPredicationPass(Registry);
  initializeWasmEHPreparePass(Registry);
  initializeWriteBitcodePassPass(Registry);
  initializeHardwareLoopsPass(Registry);
  initializeTypePromotionPass(Registry);
  initializeReplaceWithVeclibLegacyPass(Registry);

  char *Line = nullptr;
  size_t Capacity = 0;
  ssize_t Length;
  std::string Text;
  while ((Length = getline(&Line, &Capacity, stdin)) > 0) {
    SmallVector<StringRef, 16> Words;
    StringRef(Line, Length).rtrim('\n').split(Words, ' ', -1, false);
    size_t NumBytes;
    if (Words.empty() || Words[0].getAsInteger(10, NumBytes))
      return 2;
    std::vector<std::string> Flags(Words.begin() + 1, Words.end());
    Text.resize(NumBytes);
    if (std::fread(&Text[0], 1, NumBytes, stdin) != NumBytes)
      return 2;
    std::string Out;
    Status S = compile(argv[1], Flags, Text, Out);
    std::fprintf(Replies, "%d %zu\n", int(S), Out.size());
    std::fwrite(Out.data(), 1, Out.size(), Replies);
    std::fflush(Replies);
  }
  return 0;
}
