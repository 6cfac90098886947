package repro.diff

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import Engine._
import VertexProgram.neq

/** Run a program on a single view from scratch (§5's "scratch" mode).
  *
  * "From scratch" still shares computation across *iterations* — exactly
  * as the paper notes: even a scratch run is a differential computation in
  * the iteration dimension. The run records a trace of per-iteration
  * change-points, collected to the driver as a [[Trace]] each iteration,
  * so that a later view can be maintained differentially against it. A
  * fixpoint program that reaches `maxIterations` without converging fails
  * with an `IllegalStateException`.
  */
object ScratchRun {

  def run(program: VertexProgram, vertices: DataFrame,
          preparedEdges: DataFrame): RunResult = {
    val vcount = vertices.count()
    var prev = ckpt(initialState(program, vertices))
    val points = Seq.newBuilder[(Long, Int, Double)]
    val iterStats = Seq.newBuilder[IterStat]
    var i = 0
    var exit: Option[Exit] = None
    val cap = program.fixedIterations.getOrElse(program.maxIterations)

    while (exit.isEmpty && i < cap) {
      i += 1
      val msgs = preparedEdges
        .join(prev.withColumnRenamed("vid", "__sv"),
              preparedEdges("src") === col("__sv"))
        .select(col("dst"),
                program.msgExpr(col("value"), col("weight"), col("srcdeg")).as("__m"))
      val agg = msgs.groupBy("dst").agg(program.aggColumn(col("__m")).as("__agg"))
      val cur = ckpt(
        fresh(vertices)
          .join(agg, col("vid") === agg("dst"), "left")
          .select(col("vid"),
                  program.applyExpr(program.initExpr(col("vid")).cast("double"),
                                    col("__agg")).cast("double").as("value")))
      // The change-points go straight into the driver-side trace.
      val changes = cur
        .join(prev.select(col("vid").as("__pv"), col("value").as("__pval")),
              col("vid") === col("__pv"))
        .where(neq(col("value"), col("__pval")))
        .select("vid", "value")
        .collect()
      points ++= changes.map(r => (r.getLong(0), i, r.getDouble(1)))
      // A scratch iteration touches every vertex.
      iterStats += IterStat(vcount, 0L, changes.length.toLong)
      prev = cur
      // A fixpoint iteration with no changes stays changeless forever —
      // valid for fixed-iteration programs too (the state is stationary).
      if (changes.isEmpty) exit = Some(Exit.Converged)
    }
    val trace = Trace(points.result())
    requireConverged(program, trace)
    RunResult(prev, trace, RunLog(iterStats.result(), exit.getOrElse(Exit.Fixed), vcount * i))
  }
}
