// Tests for the mini-CUDA lexer and parser, including a parse -> codegen ->
// re-parse round-trip property over all the repo's embedded kernels.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "ir/codegen.hpp"

namespace catt::frontend {
namespace {

TEST(Lexer, TokenKinds) {
  const auto toks = lex("foo 42 3.5f <= && // comment\n+= ++ [");
  ASSERT_GE(toks.size(), 8u);
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].text, "foo");
  EXPECT_EQ(toks[1].kind, TokKind::kIntLit);
  EXPECT_EQ(toks[1].ival, 42);
  EXPECT_EQ(toks[2].kind, TokKind::kFloatLit);
  EXPECT_FLOAT_EQ(static_cast<float>(toks[2].fval), 3.5f);
  EXPECT_EQ(toks[3].text, "<=");
  EXPECT_EQ(toks[4].text, "&&");
  EXPECT_EQ(toks[5].text, "+=");
  EXPECT_EQ(toks[6].text, "++");
  EXPECT_EQ(toks[7].text, "[");
  EXPECT_EQ(toks.back().kind, TokKind::kEof);
}

TEST(Lexer, Directives) {
  const auto toks = lex("//@regs=40\nx");
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, TokKind::kDirective);
  EXPECT_EQ(toks[0].text, "regs=40");
}

TEST(Lexer, BlockCommentsAndErrors) {
  EXPECT_EQ(lex("a /* skip * this */ b").size(), 3u);  // a, b, eof
  EXPECT_THROW(lex("/* unterminated"), ParseError);
  EXPECT_THROW(lex("a $ b"), ParseError);
}

TEST(Lexer, NumericForms) {
  auto toks = lex("0x10 1e3 2.5 7f");
  EXPECT_EQ(toks[0].ival, 16);
  EXPECT_DOUBLE_EQ(toks[1].fval, 1000.0);
  EXPECT_DOUBLE_EQ(toks[2].fval, 2.5);
  EXPECT_DOUBLE_EQ(toks[3].fval, 7.0);
}

TEST(Lexer, TracksLineAndColumn) {
  const auto toks = lex("a\n  b");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[1].col, 3);
}

// Out-of-range integer literals used to saturate silently inside strtoll;
// they, and digit runs strtoll cannot fully consume, are now diagnosed at
// the literal's position.
TEST(Lexer, MalformedIntegerLiteralsAreDiagnosed) {
  EXPECT_EQ(lex("9223372036854775807")[0].ival, 9223372036854775807LL);
  for (const char* lit : {"99999999999999999999", "9223372036854775808",
                          "0x10000000000000000", "0x", "08"}) {
    try {
      lex(std::string("x = ") + lit + ";");
      ADD_FAILURE() << lit << ": expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 1) << lit;
      EXPECT_EQ(e.col(), 5) << lit;
      EXPECT_NE(std::string(e.what()).find(lit), std::string::npos) << e.what();
    }
  }
}

constexpr const char* kAtax = R"(
//@regs=48
__global__ void atax_kernel1(float *A, float *x, float *tmp, int NX) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < NX) {
        for (int j = 0; j < NX; j++) {
            tmp[i] += A[i * NX + j] * x[j];
        }
    }
}
)";

TEST(Parser, AtaxStructure) {
  ir::Kernel k = parse_kernel(kAtax);
  EXPECT_EQ(k.name, "atax_kernel1");
  EXPECT_EQ(k.regs_per_thread, 48);
  ASSERT_EQ(k.arrays.size(), 3u);
  EXPECT_EQ(k.arrays[0].name, "A");
  ASSERT_EQ(k.scalars.size(), 1u);
  EXPECT_EQ(k.scalars[0].name, "NX");
  ASSERT_EQ(k.body.size(), 2u);
  EXPECT_EQ(k.body[0]->kind, ir::StmtKind::kDeclInt);
  EXPECT_EQ(k.body[1]->kind, ir::StmtKind::kIf);
  ASSERT_EQ(k.body[1]->body.size(), 1u);
  const ir::Stmt& loop = *k.body[1]->body[0];
  EXPECT_EQ(loop.kind, ir::StmtKind::kFor);
  EXPECT_EQ(loop.loop_id, 0);
  EXPECT_EQ(loop.name, "j");
  // tmp[i] += ... desugars to a store of tmp[i] + rhs.
  ASSERT_EQ(loop.body.size(), 1u);
  EXPECT_EQ(loop.body[0]->kind, ir::StmtKind::kStore);
  EXPECT_EQ(loop.body[0]->name, "tmp");
}

TEST(Parser, CompoundAssignDesugar) {
  ir::Kernel k = parse_kernel(R"(
__global__ void f(float *A) {
    float x = 1.0f;
    x *= 2.0f;
    A[threadIdx.x] -= x;
})");
  EXPECT_EQ(k.body[1]->kind, ir::StmtKind::kAssign);
  EXPECT_EQ(k.body[1]->value->str(), "x * 2f");
  EXPECT_EQ(k.body[2]->kind, ir::StmtKind::kStore);
  EXPECT_EQ(k.body[2]->value->str(), "A[threadIdx.x] - x");
}

TEST(Parser, SharedArraysAndSync) {
  ir::Kernel k = parse_kernel(R"(
__global__ void f(float *A, int N) {
    __shared__ float buf[1024];
    buf[threadIdx.x] = A[threadIdx.x];
    __syncthreads();
    A[threadIdx.x] = buf[threadIdx.x % N];
})");
  ASSERT_EQ(k.shared.size(), 1u);
  EXPECT_EQ(k.shared[0].count, 1024);
  EXPECT_EQ(k.static_shared_bytes(), 4096u);
  EXPECT_EQ(k.body[1]->kind, ir::StmtKind::kSync);
}

TEST(Parser, ForIncrementForms) {
  for (const char* inc : {"j++", "j += 2", "j = j + 3", "j--", "j -= 1"}) {
    const std::string src = std::string(R"(
__global__ void f(float *A, int N) {
    for (int j = 0; j < N; )") + inc + R"() {
        A[j] = 0.0f;
    }
})";
    EXPECT_NO_THROW(parse_kernel(src)) << inc;
  }
}

TEST(Parser, IfElseAndLogicalOps) {
  ir::Kernel k = parse_kernel(R"(
__global__ void f(int *A, int N) {
    int i = threadIdx.x;
    if (i < N && i % 2 == 0) {
        A[i] = 1;
    } else {
        A[i] = 0;
    }
})");
  const ir::Stmt& s = *k.body[1];
  EXPECT_EQ(s.kind, ir::StmtKind::kIf);
  EXPECT_FALSE(s.else_body.empty());
}

TEST(Parser, IntrinsicsAndCasts) {
  ir::Kernel k = parse_kernel(R"(
__global__ void f(float *A, int N) {
    float x = sqrtf((float)(N)) + fmaxf(1.0f, 2.0f);
    A[0] = fabsf(x) + expf(0.5f) + logf(2.0f) + powf(2.0f, 3.0f) + floorf(x);
})");
  EXPECT_EQ(k.body.size(), 2u);
}

TEST(Parser, MultiKernelProgram) {
  auto ks = parse_program(R"(
__global__ void a(float *X) { X[0] = 1.0f; }
//@regs=20
__global__ void b(float *X) { X[1] = 2.0f; }
)");
  ASSERT_EQ(ks.size(), 2u);
  EXPECT_EQ(ks[0].name, "a");
  EXPECT_EQ(ks[0].regs_per_thread, 32);  // default
  EXPECT_EQ(ks[1].regs_per_thread, 20);
}

TEST(Parser, Errors) {
  // Unknown identifier.
  EXPECT_THROW(parse_kernel("__global__ void f(float *A) { A[zzz] = 1.0f; }"), ParseError);
  // Bare array use.
  EXPECT_THROW(parse_kernel("__global__ void f(float *A, int N) { int x = A + N; }"),
               ParseError);
  // Assignment to a scalar parameter.
  EXPECT_THROW(parse_kernel("__global__ void f(float *A, int N) { N = 3; }"), ParseError);
  // Subscript of a scalar.
  EXPECT_THROW(parse_kernel("__global__ void f(float *A, int N) { A[N[0]] = 1.0f; }"),
               ParseError);
  // Missing semicolon.
  EXPECT_THROW(parse_kernel("__global__ void f(float *A) { A[0] = 1.0f }"), ParseError);
  // No kernel at all.
  EXPECT_THROW(parse_program("int x;"), ParseError);
  // Float scalar parameter unsupported.
  EXPECT_THROW(parse_kernel("__global__ void f(float s) { }"), ParseError);
}

TEST(Parser, ErrorHasLocation) {
  try {
    parse_kernel("__global__ void f(float *A) {\n  A[qq] = 1.0f;\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("qq"), std::string::npos);
  }
}

// A //@regs value that is not a positive integer used to be read as 0, a
// negative count or a numeric prefix, and the kernel silently ran with
// the default 32 registers. Every such value is now a located diagnostic.
TEST(Parser, MalformedRegsDirectiveIsDiagnosed) {
  for (const char* value : {"abc", "-4", "40abc", "", "0", "+4", "4.5",
                            "99999999999999999999", "2147483648"}) {
    const std::string src =
        std::string("\n//@regs=") + value + "\n__global__ void f(float *A) { A[0] = 1.0f; }";
    try {
      parse_kernel(src);
      ADD_FAILURE() << "'" << value << "': expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 2) << value;
      EXPECT_EQ(e.col(), 1) << value;
      EXPECT_NE(std::string(e.what()).find("//@regs"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(parse_kernel("//@regs= 64 \n__global__ void f(float *A) { A[0] = 1.0f; }")
                .regs_per_thread,
            64);
}

TEST(Parser, UnknownDirectiveHasLocation) {
  try {
    parse_kernel("\n\n  //@unroll=4\n__global__ void f(float *A) { A[0] = 1.0f; }");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.col(), 3);
  }
}

// Round-trip: parse -> codegen -> parse again -> identical structure.
TEST(Parser, CodegenRoundTrip) {
  ir::Kernel k1 = parse_kernel(kAtax);
  const std::string regenerated = "//@regs=48\n" + ir::to_cuda(k1);
  ir::Kernel k2 = parse_kernel(regenerated);
  EXPECT_EQ(k2.name, k1.name);
  EXPECT_EQ(k2.regs_per_thread, k1.regs_per_thread);
  EXPECT_EQ(ir::to_cuda(k1), ir::to_cuda(k2));
}

TEST(Parser, LoopVarScopeRestored) {
  // The same name may be a local before and a loop var inside.
  ir::Kernel k = parse_kernel(R"(
__global__ void f(float *A, int N) {
    for (int j = 0; j < N; j++) {
        A[j] = 0.0f;
    }
    for (int j = 0; j < N; j++) {
        A[j] = 1.0f;
    }
})");
  EXPECT_EQ(ir::collect_loops(k).size(), 2u);
}

}  // namespace
}  // namespace catt::frontend
// Appended: print -> parse round-trip property over random expressions.
#include "common/rng.hpp"
#include "expr/expr.hpp"

namespace catt::frontend {
namespace {

/// Random integer expression over {threadIdx.x, N, j, literals} with
/// arithmetic, division, and modulo (the index-expression grammar).
expr::ExprPtr random_int_expr(Rng& rng, int depth) {
  using namespace expr;
  if (depth == 0) {
    switch (rng.next_below(4)) {
      case 0: return tid_x();
      case 1: return var("N");
      case 2: return var("j");
      default: return iconst(1 + static_cast<std::int64_t>(rng.next_below(99)));
    }
  }
  switch (rng.next_below(6)) {
    case 0: return add(random_int_expr(rng, depth - 1), random_int_expr(rng, depth - 1));
    case 1: return sub(random_int_expr(rng, depth - 1), random_int_expr(rng, depth - 1));
    case 2: return mul(random_int_expr(rng, depth - 1), random_int_expr(rng, depth - 1));
    case 3:
      return div(random_int_expr(rng, depth - 1),
                 iconst(1 + static_cast<std::int64_t>(rng.next_below(16))));
    case 4:
      return mod(random_int_expr(rng, depth - 1),
                 iconst(1 + static_cast<std::int64_t>(rng.next_below(16))));
    default: return unary(UnOp::kNeg, random_int_expr(rng, depth - 1));
  }
}

class ExprRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ExprRoundTrip, PrintedExpressionReparsesStructurally) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 3);
  auto e = random_int_expr(rng, 4);
  const std::string src = R"(
__global__ void f(float *A, int N) {
    for (int j = 0; j < N; j++) {
        A[j] = (float)()" + e->str() + R"();
    }
})";
  ir::Kernel k = parse_kernel(src);
  // Dig the reparsed expression back out: for -> store -> value(cast).
  const ir::Stmt& loop = *k.body[0];
  ASSERT_EQ(loop.kind, ir::StmtKind::kFor);
  const ir::Stmt& st = *loop.body[0];
  ASSERT_EQ(st.kind, ir::StmtKind::kStore);
  ASSERT_EQ(st.value->kind, expr::ExprKind::kCast);
  EXPECT_TRUE(expr::equal(*st.value->args[0], *e))
      << "original: " << e->str() << "\nreparsed: " << st.value->args[0]->str();
}

INSTANTIATE_TEST_SUITE_P(RandomExprs, ExprRoundTrip, ::testing::Range(0, 40));

}  // namespace
}  // namespace catt::frontend
