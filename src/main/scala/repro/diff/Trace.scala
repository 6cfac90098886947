package repro.diff

import java.util.Arrays
import scala.collection.mutable.ArrayBuilder

/** A run's per-iteration change-points `(vid, iter, value)`, arranged for
  * lookup — the analog of a differential-dataflow *arrangement* (McSherry
  * et al., "Shared Arrangements", VLDB 2020): the trace is indexed once,
  * and every later read touches only the vids it asks for.
  *
  * Layout: `vids` holds each vid with a change-point once, sorted; vid
  * `vids(k)`'s change-points sit at `offsets(k) until offsets(k + 1)` of
  * `iters`/`values`, sorted by iteration. Iteration 0 (the init state) is
  * never stored: a vid without a change ≤ j has its init value at j.
  *
  * The trace lives on the driver and is broadcast to the executors that
  * read it. It holds O(#change-points) entries — the difference
  * representation of one view's run, not the per-iteration states.
  */
final class Trace private (vids: Array[Long], offsets: Array[Int],
                           iters: Array[Int], values: Array[Double]) extends Serializable {

  /** Largest iteration with a change-point (0 for an empty trace). */
  val lastIter: Int = if (iters.isEmpty) 0 else iters.max

  /** Value of `vid` at iteration `j`: its latest change-point ≤ j, or None
    * when it has none (it still holds its init value).
    */
  def at(vid: Long, j: Int): Option[Double] = {
    val r = Arrays.binarySearch(vids, vid)
    if (r < 0) None
    else {
      // First position of the run whose iteration exceeds j.
      var lo = offsets(r)
      var hi = offsets(r + 1)
      while (lo < hi) {
        val m = (lo + hi) >>> 1
        if (iters(m) <= j) lo = m + 1 else hi = m
      }
      if (lo == offsets(r)) None else Some(values(lo - 1))
    }
  }

  /** Largest iteration with a change-point of any vid in `vs` (0 if none). */
  def lastChange(vs: Iterable[Long]): Int =
    vs.iterator.map { v =>
      val r = Arrays.binarySearch(vids, v)
      if (r < 0) 0 else iters(offsets(r + 1) - 1)
    }.foldLeft(0)(math.max)

  /** Every change-point, sorted by `(vid, iter)`. */
  def points: Iterator[(Long, Int, Double)] =
    vids.indices.iterator.flatMap { k =>
      (offsets(k) until offsets(k + 1)).iterator.map(p => (vids(k), iters(p), values(p)))
    }

  /** The trace of a run that recomputed `affected(i - 1)` (sorted vids) at
    * iteration i and found `changes` among them: this trace without the
    * change-points of recomputed `(vid, iter)` pairs, plus `changes`.
    * Iterations past `affected.size` keep their change-points.
    */
  def patch(affected: IndexedSeq[Array[Long]], changes: Iterable[(Long, Int, Double)]): Trace = {
    val kept = points.filterNot { case (v, i, _) =>
      i <= affected.size && Arrays.binarySearch(affected(i - 1), v) >= 0
    }
    Trace.merge(kept, Trace.sorted(changes).iterator)
  }
}

object Trace {

  /** Arrange change-points given in any order; `(vid, iter)` pairs must be
    * distinct and iterations ≥ 1.
    */
  def apply(points: Iterable[(Long, Int, Double)]): Trace =
    merge(sorted(points).iterator, Iterator.empty)

  private val byVidIter: Ordering[(Long, Int, Double)] =
    Ordering.by((p: (Long, Int, Double)) => (p._1, p._2))

  private def sorted(points: Iterable[(Long, Int, Double)]): Array[(Long, Int, Double)] =
    points.toArray.sorted(byVidIter)

  /** Merge two `(vid, iter)`-sorted, disjoint point streams into a trace. */
  private def merge(a: Iterator[(Long, Int, Double)], b: Iterator[(Long, Int, Double)]): Trace = {
    val vids = ArrayBuilder.make[Long]
    val offsets = ArrayBuilder.make[Int]
    val iters = ArrayBuilder.make[Int]
    val values = ArrayBuilder.make[Double]
    var n = 0
    var lastVid = 0L
    var lastIter = 0
    def add(p: (Long, Int, Double)): Unit = {
      require(p._2 >= 1, s"change-point of vid ${p._1} at iteration ${p._2} < 1")
      if (n == 0 || p._1 != lastVid) { vids += p._1; offsets += n; lastVid = p._1 }
      else require(p._2 != lastIter, s"two change-points of vid ${p._1} at iteration ${p._2}")
      lastIter = p._2
      iters += p._2
      values += p._3
      n += 1
    }
    val ba = a.buffered
    val bb = b.buffered
    while (ba.hasNext || bb.hasNext)
      if (!bb.hasNext || (ba.hasNext && byVidIter.lt(ba.head, bb.head))) add(ba.next())
      else add(bb.next())
    offsets += n
    new Trace(vids.result(), offsets.result(), iters.result(), values.result())
  }
}
