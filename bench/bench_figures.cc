// The paper's Section 7 figures in one binary: Fig. 8(a-c) time XPath
// queries with filters and Fig. 9(a-c) regular XPath with the Kleene star,
// each against document size (RegisterFigure's ten-increment series).
// Select figures with google-benchmark's own filter, e.g.
//
//   bench_figures --benchmark_filter=Fig8a
//
// Fig. 8 runs the JAXP substitute, HyPE, OptHyPE and OptHyPE-C. Fig. 9 runs
// the HyPE variants only: conventional XPath engines cannot evaluate
// general Kleene stars, which is the paper's point.

#include "bench_common.h"

namespace smoqe::bench {
namespace {

void RegisterFigures() {
  // Fig. 8(a): a filter returning a large set of nodes (thousands).
  RegisterFigure("Fig8a_filter_large_result",
                 "department/patient[visit/treatment/medication]",
                 {kJaxp, kHype, kOptHype, kOptHypeC});
  // Fig. 8(b): filter conjunctions (hundreds of answers).
  RegisterFigure(
      "Fig8b_filter_conjunctions",
      "department/patient[visit/treatment/medication/diagnosis/text() = "
      "'heart disease' and visit/treatment/test and "
      "address/city/text() = 'Edinburgh']",
      {kJaxp, kHype, kOptHype, kOptHypeC});
  // Fig. 8(c): filter disjunctions.
  RegisterFigure(
      "Fig8c_filter_disjunctions",
      "department/patient[visit/treatment/medication/diagnosis/text() = "
      "'heart disease' or visit/treatment/medication/diagnosis/text() = "
      "'diabetes' or address/city/text() = 'Istanbul']",
      {kJaxp, kHype, kOptHype, kOptHypeC});
  // Fig. 9(a): the Kleene star outside any filter (ancestor-chain
  // navigation).
  RegisterFigure(
      "Fig9a_star_outside_filter",
      "department/patient/(parent/patient)*/visit/treatment/medication/"
      "diagnosis[text() = 'heart disease']",
      {kHype, kOptHype, kOptHypeC});
  // Fig. 9(b): a filter inside the Kleene star body.
  RegisterFigure(
      "Fig9b_filter_inside_star",
      "department/patient/(parent/patient[visit/treatment/medication])*/"
      "pname",
      {kHype, kOptHype, kOptHypeC});
  // Fig. 9(c): the Kleene star inside a filter (the ancestor-had-heart-
  // disease pattern of the paper's running example).
  RegisterFigure(
      "Fig9c_star_in_filter",
      "department/patient[(parent/patient)*/visit/treatment/medication/"
      "diagnosis/text() = 'heart disease']/pname",
      {kHype, kOptHype, kOptHypeC});
}

}  // namespace
}  // namespace smoqe::bench

int main(int argc, char** argv) {
  smoqe::bench::RegisterFigures();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
