/**
 * @file
 * Tests for the sparse-matrix substrate: format round-trips, SpGEMM
 * references (Gustavson vs outer-product+merge vs dense), fiber merging,
 * and the synthetic SuiteSparse generator.
 */

#include <gtest/gtest.h>

#include "sparse/formats.hpp"
#include "sparse/matrix.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/suitesparse.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

#include "temp_path.hpp"

#include <sstream>

namespace stellar::sparse
{
namespace
{

CsrMatrix
randomCsr(Rng &rng, std::int64_t rows, std::int64_t cols, double density)
{
    CooMatrix coo;
    coo.rows = rows;
    coo.cols = cols;
    for (std::int64_t r = 0; r < rows; r++)
        for (std::int64_t c = 0; c < cols; c++)
            if (rng.nextBool(density))
                coo.entries.push_back(
                        CooEntry{r, c, double(rng.nextRange(1, 9))});
    return cooToCsr(coo);
}

TEST(CsrMatrix, WellFormedInvariant)
{
    Rng rng(1);
    auto m = randomCsr(rng, 10, 12, 0.3);
    EXPECT_TRUE(m.wellFormed());
    EXPECT_EQ(m.rowPtr().size(), 11u);
}

TEST(Conversions, CooCsrRoundTrip)
{
    Rng rng(2);
    auto m = randomCsr(rng, 8, 9, 0.4);
    EXPECT_EQ(cooToCsr(csrToCoo(m)), m);
}

TEST(Conversions, CscRoundTrip)
{
    Rng rng(3);
    auto m = randomCsr(rng, 7, 11, 0.35);
    EXPECT_EQ(cscToCsr(csrToCsc(m)), m);
}

TEST(Conversions, DenseRoundTrip)
{
    Rng rng(4);
    auto m = randomCsr(rng, 6, 6, 0.5);
    EXPECT_EQ(denseToCsr(csrToDense(m)), m);
}

TEST(Conversions, TransposeIsInvolution)
{
    Rng rng(5);
    auto m = randomCsr(rng, 9, 5, 0.4);
    auto t = csrTranspose(m);
    EXPECT_EQ(t.rows(), 5);
    EXPECT_EQ(t.cols(), 9);
    EXPECT_EQ(csrTranspose(t), m);
}

TEST(CooMatrix, CanonicalizeSumsDuplicates)
{
    CooMatrix coo;
    coo.rows = coo.cols = 3;
    coo.entries = {{1, 1, 2.0}, {0, 0, 1.0}, {1, 1, 3.0}};
    coo.canonicalize();
    ASSERT_EQ(coo.entries.size(), 2u);
    EXPECT_EQ(coo.entries[0].row, 0);
    EXPECT_DOUBLE_EQ(coo.entries[1].value, 5.0);
}

/** Property: all format round-trips preserve the matrix. */
class FormatRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(FormatRoundTrip, BitvectorLinkedListBlockCrs)
{
    Rng rng(std::uint64_t(GetParam()) * 17 + 3);
    auto m = randomCsr(rng, rng.nextRange(1, 20), rng.nextRange(1, 20),
                       0.05 + 0.5 * rng.nextDouble());
    EXPECT_EQ(bitvectorToCsr(csrToBitvector(m)), m);
    EXPECT_EQ(linkedListToCsr(csrToLinkedList(m)), m);
    for (std::int64_t bs : {1, 2, 4})
        EXPECT_EQ(blockCrsToCsr(csrToBlockCrs(m, bs)), m)
                << "block size " << bs;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatRoundTrip, ::testing::Range(0, 12));

TEST(LinkedList, InsertAccumulates)
{
    LinkedListMatrix ll;
    ll.rows = ll.cols = 4;
    ll.rowHead.assign(4, -1);
    ll.insert(1, 2, 5.0);
    ll.insert(1, 0, 1.0);
    ll.insert(1, 2, 3.0);
    auto csr = linkedListToCsr(ll);
    EXPECT_EQ(csr.nnz(), 2);
    auto dense = csrToDense(csr);
    EXPECT_DOUBLE_EQ(dense.at(1, 2), 8.0);
    EXPECT_DOUBLE_EQ(dense.at(1, 0), 1.0);
}

TEST(BlockCrs, StructureOfBlockDiagonal)
{
    DenseMatrix d(4, 4);
    d.at(0, 0) = 1;
    d.at(1, 1) = 2;
    d.at(2, 2) = 3;
    d.at(3, 3) = 4;
    auto bcrs = csrToBlockCrs(denseToCsr(d), 2);
    EXPECT_EQ(bcrs.nnzBlocks(), 2);
    EXPECT_EQ(bcrs.blockRows(), 2);
}

/** Property: Gustavson SpGEMM matches the dense reference. */
class SpGemmProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SpGemmProperty, GustavsonMatchesDense)
{
    Rng rng(std::uint64_t(GetParam()) * 101 + 11);
    auto a = randomCsr(rng, rng.nextRange(1, 12), rng.nextRange(1, 12),
                       0.3);
    auto b = randomCsr(rng, a.cols(), rng.nextRange(1, 12), 0.3);
    auto c = spgemmGustavson(a, b);
    auto expected = denseMatmul(csrToDense(a), csrToDense(b));
    EXPECT_LT(csrToDense(c).maxAbsDiff(expected), 1e-9);
    EXPECT_TRUE(c.wellFormed());
}

TEST_P(SpGemmProperty, OuterProductPlusMergeMatchesGustavson)
{
    Rng rng(std::uint64_t(GetParam()) * 211 + 5);
    auto a = randomCsr(rng, rng.nextRange(1, 12), rng.nextRange(1, 12),
                       0.3);
    auto b = randomCsr(rng, a.cols(), rng.nextRange(1, 12), 0.3);
    auto partials = outerProductPartials(csrToCsc(a), b);
    auto merged = mergePartials(a.rows(), b.cols(), partials);
    auto gustavson = spgemmGustavson(a, b);
    EXPECT_LT(csrToDense(merged).maxAbsDiff(csrToDense(gustavson)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpGemmProperty, ::testing::Range(0, 12));

TEST(SpGemm, MultiplyCountMatchesPartialSizes)
{
    Rng rng(7);
    auto a = randomCsr(rng, 10, 10, 0.3);
    auto b = randomCsr(rng, 10, 10, 0.3);
    auto partials = outerProductPartials(csrToCsc(a), b);
    std::int64_t partial_elements = 0;
    for (const auto &partial : partials)
        partial_elements += partial.totalElements();
    EXPECT_EQ(partial_elements, spgemmMultiplies(a, b));
}

TEST(MergeFibers, SumsSharedCoordinates)
{
    Fiber a{{0, 2, 4}, {1, 2, 3}};
    Fiber b{{2, 3}, {10, 20}};
    auto merged = mergeFibers(a, b);
    EXPECT_EQ(merged.coords, (std::vector<std::int64_t>{0, 2, 3, 4}));
    EXPECT_EQ(merged.values, (std::vector<double>{1, 12, 20, 3}));
    EXPECT_TRUE(merged.sorted());
}

TEST(PartialMatrix, ImbalanceMetric)
{
    PartialMatrix p;
    p.rowIds = {0, 1};
    p.rowFibers = {Fiber{{0, 1, 2, 3}, {1, 1, 1, 1}}, Fiber{{0}, {1}}};
    EXPECT_DOUBLE_EQ(p.imbalance(), 4.0 / 2.5);
    EXPECT_EQ(p.maxFiberLen(), 4);
    EXPECT_EQ(p.totalElements(), 5);
}

TEST(SuiteSparse, SuiteHasEighteenMatrices)
{
    EXPECT_EQ(outerSpaceSuite().size(), 18u);
    const auto &poisson = profileByName("poisson3Da");
    EXPECT_EQ(poisson.rows, 13514);
    EXPECT_EQ(poisson.nnz, 352762);
}

TEST(SuiteSparse, SynthesisMatchesProfileStatistics)
{
    auto profile = scaleProfile(profileByName("poisson3Da"), 50000);
    auto m = synthesize(profile, 42);
    EXPECT_TRUE(m.wellFormed());
    EXPECT_EQ(m.rows(), profile.rows);
    // nnz within 2% of the target.
    EXPECT_NEAR(double(m.nnz()), double(profile.nnz),
                0.02 * double(profile.nnz));
}

TEST(SuiteSparse, ScalingPreservesAverageRowLength)
{
    const auto &web = profileByName("web-Google");
    auto scaled = scaleProfile(web, 100000);
    EXPECT_LE(scaled.nnz, 110000);
    EXPECT_NEAR(scaled.avgRowNnz(), web.avgRowNnz(),
                web.avgRowNnz() * 0.1);
}

TEST(SuiteSparse, PowerLawIsMoreImbalancedThanMesh)
{
    auto mesh = synthesize(scaleProfile(profileByName("poisson3Da"), 30000),
                           1);
    auto graph = synthesize(
            scaleProfile(profileByName("wiki-Vote"), 30000), 1);
    double mesh_ratio = double(mesh.maxRowNnz()) /
                        std::max(1.0, double(mesh.nnz()) /
                                              double(mesh.rows()));
    double graph_ratio = double(graph.maxRowNnz()) /
                         std::max(1.0, double(graph.nnz()) /
                                               double(graph.rows()));
    EXPECT_GT(graph_ratio, mesh_ratio * 2.0);
}

TEST(SuiteSparse, SynthesisIsDeterministic)
{
    auto profile = scaleProfile(profileByName("ca-CondMat"), 20000);
    EXPECT_EQ(synthesize(profile, 7), synthesize(profile, 7));
}

TEST(MatrixMarket, RoundTripThroughStream)
{
    Rng rng(17);
    auto matrix = randomCsr(rng, 9, 7, 0.3);
    std::stringstream buffer;
    writeMatrixMarket(buffer, matrix);
    auto loaded = readMatrixMarket(buffer);
    EXPECT_EQ(loaded, matrix);
}

TEST(MatrixMarket, FileRoundTrip)
{
    Rng rng(19);
    auto matrix = randomCsr(rng, 12, 12, 0.2);
    test_util::TempDir dir("stellar_mm_test");
    std::string path = (dir.path() / "matrix.mtx").string();
    writeMatrixMarketFile(path, matrix);
    EXPECT_EQ(readMatrixMarketFile(path), matrix);
}

TEST(MatrixMarket, SymmetricAndPatternHeaders)
{
    std::stringstream mm;
    mm << "%%MatrixMarket matrix coordinate pattern symmetric\n"
       << "% a comment\n"
       << "3 3 2\n"
       << "2 1\n"
       << "3 3\n";
    auto matrix = readMatrixMarket(mm);
    auto dense = csrToDense(matrix);
    EXPECT_DOUBLE_EQ(dense.at(1, 0), 1.0);
    EXPECT_DOUBLE_EQ(dense.at(0, 1), 1.0); // mirrored
    EXPECT_DOUBLE_EQ(dense.at(2, 2), 1.0); // diagonal not doubled
    EXPECT_EQ(matrix.nnz(), 3);
}

TEST(MatrixMarket, RejectsMalformedInput)
{
    std::stringstream no_banner("1 1 0\n");
    EXPECT_THROW(readMatrixMarket(no_banner), FatalError);
    std::stringstream truncated;
    truncated << "%%MatrixMarket matrix coordinate real general\n"
              << "2 2 3\n"
              << "1 1 5.0\n";
    EXPECT_THROW(readMatrixMarket(truncated), FatalError);
    std::stringstream bad_coords;
    bad_coords << "%%MatrixMarket matrix coordinate real general\n"
               << "2 2 1\n"
               << "5 1 1.0\n";
    EXPECT_THROW(readMatrixMarket(bad_coords), FatalError);
}

TEST(MatrixMarket, MalformedInputsFailWithTheOffendingLineNumber)
{
    // Every parse failure must name its 1-based line, never misparse
    // silently (a garbage token fed to istream >> leaves zeros behind).
    struct Case
    {
        const char *label;
        const char *text;
        const char *expect; //!< required substring of the FatalError
    };
    const Case cases[] = {
            {"empty stream", "", "empty Matrix Market stream"},
            {"no banner", "3 3 1\n1 1 5.0\n",
             "line 1: missing %%MatrixMarket banner"},
            {"incomplete banner", "%%MatrixMarket matrix coordinate\n",
             "line 1: incomplete banner"},
            {"wrong object",
             "%%MatrixMarket vector coordinate real general\n",
             "line 1: only matrix objects"},
            {"dense format", "%%MatrixMarket matrix array real general\n",
             "line 1: only coordinate format"},
            {"bad field",
             "%%MatrixMarket matrix coordinate complex general\n",
             "line 1: unsupported field type"},
            {"bad symmetry",
             "%%MatrixMarket matrix coordinate real hermitian\n",
             "line 1: unsupported symmetry"},
            {"missing sizes",
             "%%MatrixMarket matrix coordinate real general\n"
             "% only comments follow\n",
             "missing size header"},
            {"garbage sizes",
             "%%MatrixMarket matrix coordinate real general\n"
             "three by three\n",
             "line 2: malformed size header"},
            {"negative sizes",
             "%%MatrixMarket matrix coordinate real general\n"
             "-3 3 1\n",
             "line 2: size header out of range"},
            {"truncated entries",
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 3\n"
             "1 1 5.0\n",
             "truncated entry list (got 1 of 3 entries)"},
            {"short entry row",
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 1\n"
             "1\n",
             "line 3: short entry row"},
            {"missing value",
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 1\n"
             "1 2\n",
             "line 3: entry missing its value"},
            {"row out of range",
             "%%MatrixMarket matrix coordinate real general\n"
             "% comment shifts the entries down a line\n"
             "2 2 1\n"
             "5 1 1.0\n",
             "line 4: entry coordinates (5, 1) out of range"},
            {"zero-based column",
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 1\n"
             "1 0 1.0\n",
             "line 3: entry coordinates (1, 0) out of range"},
    };
    for (const auto &kase : cases) {
        SCOPED_TRACE(kase.label);
        std::istringstream in(kase.text);
        try {
            readMatrixMarket(in);
            FAIL() << "parsed without error";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(kase.expect),
                      std::string::npos)
                    << "message was: " << err.what();
        }
    }
}

} // namespace
} // namespace stellar::sparse
