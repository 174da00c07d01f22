//! Parallel iterator adapters (the subset the workspace uses).

use std::ops::Range;

/// Conversion into a parallel iterator over owned items.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// Starts the parallel pipeline.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

/// Conversion into a parallel iterator over borrowed items.
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed element type.
    type Item: Send + 'a;
    /// Starts the parallel pipeline over references.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

/// Conversion into a parallel iterator over mutably borrowed items
/// (rayon's `IntoParallelRefMutIterator`): the indexed lockstep primitive
/// the batch evaluator drives its per-candidate lanes with.
pub trait IntoParallelRefMutIterator<'a> {
    /// The mutably borrowed element type.
    type Item: Send + 'a;
    /// Starts the parallel pipeline over mutable references.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

impl_range_par_iter!(u32, u64, usize);

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// A materialized parallel iterator.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T> std::fmt::Debug for ParIter<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParIter").finish_non_exhaustive()
    }
}

impl<T: Send> ParIter<T> {
    /// Maps every item through `f` in parallel.
    pub fn map<O, F>(self, f: F) -> ParMap<T, F>
    where
        O: Send,
        F: Fn(T) -> O + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Pairs every item with its position in the original sequence
    /// (rayon's indexed `enumerate`). Indices are assigned before any
    /// parallel dispatch, so they are deterministic regardless of worker
    /// scheduling.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Consumes every item with `f` in parallel, for side effects.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        crate::parallel_map(self.items, &|item| f(item));
    }
}

/// A mapped parallel pipeline awaiting collection.
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T, F> std::fmt::Debug for ParMap<T, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParMap").finish_non_exhaustive()
    }
}

impl<T, O, F> ParMap<T, F>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    /// Executes the pipeline, preserving input order.
    pub fn collect<C: FromIterator<O>>(self) -> C {
        crate::parallel_map(self.items, &self.f)
            .into_iter()
            .collect()
    }
}

/// Marker trait mirroring rayon's `ParallelIterator` for `use` compatibility.
pub trait ParallelIterator {}

impl<T> ParallelIterator for ParIter<T> {}
impl<T, F> ParallelIterator for ParMap<T, F> {}
